//! `paper_tensor` and `paper_memory`: fixed sets of paper points, each
//! one call of a `hopper_micro` point function on a fresh `Gpu`, plus
//! functional checks against host-computed results.

use crate::checks::{self, GemmCheck};
use crate::util::{median, peak_rss_mb, quantile, Metrics, Rng, Tally};
use hopper_isa::dpx::DpxFunc;
use hopper_isa::mma::OperandSource::{self, RegShared, SharedShared};
use hopper_isa::{DType, MmaDesc};
use hopper_micro::asyncbench::{self, Variant};
use hopper_micro::membench::{self, AccessKind};
use hopper_micro::pchase::{self, MemLevel};
use hopper_micro::tcbench::{self, Init};
use hopper_micro::{dpxbench, dsmbench, paper as P};
use hopper_sim::{DeviceConfig, Gpu, Launch, PhaseSink, RunPhase};
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type PointFn = Box<dyn Fn(&mut Gpu) -> f64>;
type CheckFn = Box<dyn Fn(u64) -> Result<(), String>>;

/// One paper point: a single call of a public point function.
struct Point {
    label: String,
    /// The per-layer metric its call time lands in (`micro.<fn>_ms…`).
    layer: &'static str,
    dev: fn() -> DeviceConfig,
    /// Published value in `hopper_micro::paper`, where there is one.
    paper: Option<f64>,
    /// Inclusive bounds the method guarantees (peak, TDP, capacity…).
    range: (f64, f64),
    run: PointFn,
}

/// `a < b` (strict) or `a ≤ b` between two points of a round.
struct Relation {
    a: String,
    b: String,
    strict: bool,
}

/// A published ratio of two points (Table XI's TFLOPS/W).
struct Derived {
    label: &'static str,
    paper: f64,
    num: String,
    den: String,
}

#[derive(Default)]
struct PointSet {
    points: Vec<Point>,
    relations: Vec<Relation>,
    derived: Vec<Derived>,
    checks: Vec<(String, CheckFn)>,
}

const POS: f64 = f64::MIN_POSITIVE;

impl PointSet {
    fn point(
        &mut self,
        label: String,
        layer: &'static str,
        dev: fn() -> DeviceConfig,
        paper: Option<f64>,
        range: (f64, f64),
        run: impl Fn(&mut Gpu) -> f64 + 'static,
    ) -> String {
        self.points.push(Point {
            label: label.clone(),
            layer,
            dev,
            paper,
            range,
            run: Box::new(run),
        });
        label
    }

    fn relate(&mut self, a: &str, b: &str, strict: bool) {
        self.relations.push(Relation {
            a: a.into(),
            b: b.into(),
            strict,
        });
    }
}

/// Tensor-core ceiling at the clock the device model actually runs:
/// `peak_tflops` uses the official boost clock, which the RTX 4090 model
/// (like the paper's card, 355 vs 330 TFLOPS) runs above.
fn tc_ceiling(dev: &DeviceConfig, d: &MmaDesc) -> f64 {
    let rate = dev.tc_rate(d.ab).expect("type supported on device");
    let per_clk = if d.sparse { rate.sparse } else { rate.dense };
    let clock = dev.clock_hz.max(dev.nominal_clock_hz());
    per_clk * dev.num_sms as f64 * clock / 1e12
}

fn mma(k: u32, ab: DType, cd: DType, sparse: bool) -> MmaDesc {
    MmaDesc::mma(16, 8, k, ab, cd, sparse).expect("valid mma")
}

fn wgmma(n: u32, ab: DType, cd: DType, sparse: bool, src: OperandSource) -> MmaDesc {
    MmaDesc::wgmma(n, ab, cd, sparse, src).expect("valid wgmma")
}

fn tensor_set() -> PointSet {
    use DType::*;
    let mut s = PointSet::default();
    let (h, a, r) = (
        DeviceConfig::h800 as fn() -> DeviceConfig,
        DeviceConfig::a100 as fn() -> DeviceConfig,
        DeviceConfig::rtx4090 as fn() -> DeviceConfig,
    );
    let open = (POS, f64::INFINITY);
    // Table VII: mma latency (dense [0] / sparse [2]) on all devices.
    for (dev, d, paper) in [
        (h, mma(16, F16, F16, false), P::TABLE_VII[1].h800[0]),
        (a, mma(64, S8, S32, true), P::TABLE_VII[7].a100[2]),
        (r, mma(4, TF32, F32, false), P::TABLE_VII[4].rtx4090[0]),
    ] {
        s.point(
            format!("VII {} {d} LAT", dev().name),
            "micro.mma_latency_ms",
            dev,
            Some(paper),
            open,
            move |g| tcbench::mma_latency(g, &d),
        );
    }
    // Table VII: mma throughput, Zero init (dense [1] / sparse [3]).
    let mut mma_zero = BTreeMap::new();
    for (dev, d, paper) in [
        (h, mma(16, F16, F32, false), P::TABLE_VII[3].h800[1]),
        (a, mma(32, S8, S32, false), P::TABLE_VII[7].a100[1]),
        (r, mma(32, F16, F16, true), P::TABLE_VII[1].rtx4090[3]),
        (a, mma(8, TF32, F32, false), P::TABLE_VII[5].a100[1]),
    ] {
        let l = s.point(
            format!("VII {} {d} TPUT zero", dev().name),
            "micro.mma_throughput_ms.zero",
            dev,
            Some(paper),
            (POS, tc_ceiling(&dev(), &d)),
            move |g| tcbench::mma_throughput(g, &d, Init::Zero),
        );
        mma_zero.insert(format!("{} {d}", dev().name), l);
    }
    // Table XI: Rand throughput and board power; TFLOPS/W is their ratio.
    let d = mma(16, F16, F32, false);
    let rand = s.point(
        format!("XI H800 {d} TPUT rand"),
        "micro.mma_throughput_ms.rand",
        h,
        None,
        (POS, tc_ceiling(&h(), &d)),
        move |g| tcbench::mma_throughput(g, &d, Init::Rand),
    );
    s.relate(&rand, &mma_zero[&format!("H800 PCIe {d}")], false);
    for (dev, d, paper) in [
        (h, mma(16, F16, F32, false), P::TABLE_XI[2].3[2]),
        (a, mma(64, S8, S32, true), P::TABLE_XI[7].3[0]),
        (r, mma(8, TF32, F32, false), P::TABLE_XI[4].3[4]),
    ] {
        let power = s.point(
            format!("XI {} {d} P", dev().name),
            "micro.mma_power_ms",
            dev,
            Some(paper),
            (POS, dev().tdp_w),
            move |g| tcbench::mma_power(g, &d, Init::Rand),
        );
        if dev().name == "H800 PCIe" {
            s.derived.push(Derived {
                label: "XI H800 f16.f32 dense E",
                paper: P::TABLE_XI[2].3[3],
                num: rand.clone(),
                den: power,
            });
        }
    }
    // Tables VIII/IX: wgmma latency, SS and RS, dense and sparse.
    for (d, paper) in [
        (
            wgmma(256, F16, F32, false, SharedShared),
            P::TABLE_VIII[1].lat_ss,
        ),
        (wgmma(256, F16, F32, true, RegShared), P::TABLE_IX[1].lat_rs),
        (
            wgmma(256, E4M3, F16, true, SharedShared),
            P::TABLE_IX[3].lat_ss,
        ),
        (
            wgmma(256, S8, S32, false, RegShared),
            P::TABLE_VIII[5].lat_rs,
        ),
    ] {
        s.point(
            format!("VIII/IX {d} {:?} LAT", d.a_src),
            "micro.wgmma_latency_ms",
            h,
            Some(paper),
            open,
            move |g| tcbench::wgmma_latency(g, &d),
        );
    }
    // Tables VIII and X: wgmma throughput over dtype, N, SS/RS, Zero/Rand.
    let mut labels = Vec::new();
    for (d, init, paper) in [
        (
            wgmma(256, F16, F32, false, SharedShared),
            Init::Zero,
            P::TABLE_VIII[1].tput_ss_zero,
        ),
        (
            wgmma(256, F16, F32, false, SharedShared),
            Init::Rand,
            P::TABLE_VIII[1].tput_ss_rand,
        ),
        (
            wgmma(256, E4M3, F32, false, RegShared),
            Init::Rand,
            P::TABLE_VIII[4].tput_rs_rand,
        ),
        (
            wgmma(256, TF32, F32, false, SharedShared),
            Init::Zero,
            P::TABLE_VIII[2].tput_ss_zero,
        ),
        (
            wgmma(64, F16, F32, false, RegShared),
            Init::Rand,
            P::TABLE_X[2].1[5],
        ),
        (
            wgmma(64, F16, F32, true, SharedShared),
            Init::Zero,
            P::TABLE_X[2].2[1],
        ),
        (
            wgmma(64, F16, F32, true, RegShared),
            Init::Zero,
            P::TABLE_X[2].2[3],
        ),
    ] {
        let layer = match init {
            Init::Zero => "micro.wgmma_throughput_ms.zero",
            Init::Rand => "micro.wgmma_throughput_ms.rand",
        };
        labels.push(s.point(
            format!("VIII/X {d} {:?} TPUT {init:?}", d.a_src),
            layer,
            h,
            Some(paper),
            (POS, tc_ceiling(&h(), &d)),
            move |g| tcbench::wgmma_throughput(g, &d, init),
        ));
    }
    s.relate(&labels[1], &labels[0], false); // Rand ≤ Zero
    for chk in checks::gemm_checks() {
        let c: GemmCheck = chk;
        s.checks.push((
            format!("gemm {}", c.name),
            Box::new(move |seed| checks::run_gemm_check(&c, seed)),
        ));
    }
    s
}

fn memory_set() -> PointSet {
    let mut s = PointSet::default();
    let devs: [(fn() -> DeviceConfig, usize); 3] = [
        (DeviceConfig::rtx4090, 0),
        (DeviceConfig::a100, 1),
        (DeviceConfig::h800, 2),
    ];
    let open = (POS, f64::INFINITY);
    // Table IV: pointer-chase latency on every level and device.
    for (dev, _) in devs {
        let mut by_level = Vec::new();
        for (row, level) in P::TABLE_IV.iter().zip([
            MemLevel::L1,
            MemLevel::Shared,
            MemLevel::L2,
            MemLevel::Global,
        ]) {
            let paper = match dev().name {
                "RTX4090" => row.rtx4090,
                "A100 PCIe" => row.a100,
                _ => row.h800,
            };
            by_level.push(s.point(
                format!("IV {} {}", dev().name, row.level),
                "micro.pchase_latency_ms",
                dev,
                Some(paper),
                open,
                move |g| pchase::latency(g, level),
            ));
        }
        // L1 < L2 < DRAM.
        s.relate(&by_level[0], &by_level[2], true);
        s.relate(&by_level[2], &by_level[3], true);
    }
    // Capacity detection lands on the configured size (one doubling step).
    for dev in [
        DeviceConfig::h800 as fn() -> DeviceConfig,
        DeviceConfig::a100,
    ] {
        let cfg = dev().l1_bytes as f64;
        s.point(
            format!("L1 capacity {}", dev().name),
            "micro.detect_l1_capacity_ms",
            dev,
            None,
            (cfg / 2.0, cfg),
            |g| pchase::detect_l1_capacity(g) as f64,
        );
    }
    let cfg = DeviceConfig::a100().l2_bytes as f64;
    s.point(
        "L2 capacity A100 PCIe".into(),
        "micro.detect_l2_capacity_ms",
        DeviceConfig::a100,
        None,
        (cfg / 2.0, cfg),
        |g| pchase::detect_l2_capacity(g) as f64,
    );
    // Table V: throughput of every level, within the modelled bandwidth.
    let (h, hi) = devs[2];
    let (a, ai) = devs[1];
    let (r, ri) = devs[0];
    for (kind, ki) in [(AccessKind::Fp32, 0), (AccessKind::Fp64, 1)] {
        s.point(
            format!("V H800 L1 {}", kind.label()),
            "micro.l1_throughput_ms",
            h,
            Some(P::TABLE_V_L1[hi].1[ki]),
            (POS, h().l1_bw.b4.max(h().l1_bw.b8).max(h().l1_bw.b16)),
            move |g| membench::l1_throughput(g, kind),
        );
    }
    s.point(
        "V A100 shared".into(),
        "micro.shared_throughput_ms",
        a,
        Some(P::TABLE_V_SHARED[ai].1),
        open,
        membench::shared_throughput,
    );
    for (dev, di, kind, ki) in [(h, hi, AccessKind::Fp32V4, 2), (a, ai, AccessKind::Fp32, 0)] {
        let bw = dev().l2_bw;
        s.point(
            format!("V {} L2 {}", dev().name, kind.label()),
            "micro.l2_throughput_ms",
            dev,
            Some(P::TABLE_V_L2[di].1[ki]),
            (POS, bw.b4.max(bw.b8).max(bw.b16)),
            move |g| membench::l2_throughput(g, kind),
        );
    }
    for (dev, di) in [(h, hi), (r, ri)] {
        // Table III: the DRAM's theoretical bandwidth caps every stream.
        s.point(
            format!("V {} global", dev().name),
            "micro.global_throughput_ms",
            dev,
            Some(P::TABLE_V_GLOBAL[di].1),
            (POS, dev().dram_bw_theoretical / 1e9),
            membench::global_throughput,
        );
    }
    // Tables XIII (H800) and XIV (A100): tiled GEMM, low and high
    // blocks/SM, 8/16/32 edges, within the FP32 peak.
    let bps_index = |bps: u32| [1u32, 2, 4, 8, 16, 32].iter().position(|&b| b == bps);
    for (dev, edge, bps, variant) in [
        (h, 8, 1, Variant::SyncShare),
        (h, 8, 1, Variant::AsyncPipe),
        (h, 16, 1, Variant::SyncShare),
        (h, 16, 1, Variant::AsyncPipe),
        (h, 8, 16, Variant::SyncShare),
        (h, 8, 16, Variant::AsyncPipe),
        (h, 32, 1, Variant::AsyncPipe),
        (a, 8, 1, Variant::SyncShare),
        (a, 8, 1, Variant::AsyncPipe),
        (a, 16, 1, Variant::SyncShare),
        (a, 16, 1, Variant::AsyncPipe),
        (h, 16, 2, Variant::TmaPipe),
    ] {
        let d = dev();
        let table = if d.name == "H800 PCIe" {
            &P::TABLE_XIII
        } else {
            &P::TABLE_XIV
        };
        let row = table.iter().find(|row| row.block_edge == edge);
        let paper = match (variant, row, bps_index(bps)) {
            (Variant::SyncShare, Some(row), Some(i)) => Some(row.sync_share[i]),
            (Variant::AsyncPipe, Some(row), Some(i)) => Some(row.async_pipe[i]),
            _ => None,
        };
        let fp32_peak = d.fp32_per_clk as f64 * 2.0 * d.num_sms as f64 * d.clock_hz / 1e9;
        let layer = match variant {
            Variant::SyncShare => "micro.gemm_ms.sync",
            Variant::AsyncPipe => "micro.gemm_ms.async",
            Variant::TmaPipe => "micro.gemm_ms.tma",
        };
        s.point(
            format!(
                "XIII/XIV {} {edge}x{edge} bps={bps} {}",
                d.name,
                variant.label()
            ),
            layer,
            dev,
            paper,
            (POS, fp32_peak),
            move |g| asyncbench::gemm_throughput(g, edge, bps, variant),
        );
    }
    // Figs 6–7: DPX latency (hardware and emulated) and throughput.
    for dev in [h, a] {
        s.point(
            format!("Fig6 {} vimax3", dev().name),
            "micro.dpx_latency_ms",
            dev,
            None,
            open,
            |g| dpxbench::dpx_latency(g, DpxFunc::ViMax3S32),
        );
    }
    s.point(
        "Fig7 H800 vimax3 per SM".into(),
        "micro.dpx_throughput_per_sm_ms",
        h,
        None,
        open,
        |g| dpxbench::dpx_throughput_per_sm(g, DpxFunc::ViMax3S32),
    );
    let sms = h().num_sms;
    s.point(
        format!("Fig7 H800 sweep blocks={}", sms + 1),
        "micro.dpx_block_sweep_ms",
        h,
        None,
        open,
        move |g| dpxbench::dpx_block_sweep(g, DpxFunc::ViMax3S32, sms + 1),
    );
    // Figs 8–9 and §IV-E: distributed shared memory.
    s.point(
        "IV-E SM-to-SM latency".into(),
        "micro.dsm_latency_ms",
        h,
        Some(P::dsm::LATENCY_CYCLES),
        open,
        dsmbench::dsm_latency,
    );
    for (cs, paper) in [(2, P::dsm::RBC_PEAK_CS2_TBS), (4, P::dsm::RBC_CS4_TBS)] {
        s.point(
            format!("Fig8 RBC CS={cs} block=1024 ILP=8"),
            "micro.rbc_throughput_ms",
            h,
            Some(paper),
            open,
            move |g| dsmbench::rbc_throughput(g, cs, 1024, 8),
        );
    }
    s.point(
        "Fig9 histogram CS=2 block=512 bins=1024".into(),
        "micro.histogram_throughput_ms",
        h,
        None,
        open,
        |g| dsmbench::histogram_throughput(g, 2, 512, 1024),
    );
    // Functional: a copy and a pointer chase with host-computed results.
    for dev in [
        DeviceConfig::h800 as fn() -> DeviceConfig,
        DeviceConfig::a100,
    ] {
        s.checks.push((
            format!("copy {}", dev().name),
            Box::new(move |seed| checks::run_copy_check(dev(), seed)),
        ));
        s.checks.push((
            format!("chase {}", dev().name),
            Box::new(move |seed| checks::run_chase_check(dev(), seed)),
        ));
    }
    s
}

/// Per-launch engine phases, summed through `Gpu::set_phase_sink`.
#[derive(Default)]
struct Phases {
    launches: u64,
    setup: Duration,
    waves: Duration,
    finalize: Duration,
}

struct SharedPhases(Arc<Mutex<Phases>>);

impl PhaseSink for SharedPhases {
    fn phase(&mut self, phase: RunPhase, dur: Duration) {
        let mut p = self.0.lock().unwrap();
        match phase {
            RunPhase::Setup => {
                p.launches += 1;
                p.setup += dur;
            }
            RunPhase::Waves => p.waves += dur,
            RunPhase::Finalize => p.finalize += dur,
        }
    }
}

/// Everything a round needs before its first timed point: the point set
/// and each device brought up with a smoke launch.
fn set_up(memory: bool) -> PointSet {
    let set = if memory { memory_set() } else { tensor_set() };
    let smoke = hopper_isa::asm::assemble_named("mov %r1, %tid.x;\nexit;", "smoke")
        .expect("smoke kernel assembles");
    for dev in DeviceConfig::all() {
        Gpu::new(dev)
            .launch(&smoke, &Launch::new(1, 32))
            .expect("device bring-up");
    }
    set
}

fn float(v: f64) -> Value {
    Value::Float(v)
}

/// One round, run in a process of its own (as a sweep runs): set up,
/// call every point once in seeded order, run the functional checks.
/// Returns the round's record, one JSON line for [`run`].
pub fn round(memory: bool, seed: u64, round: u64, trace: bool) -> String {
    let mut tally = Tally::default();
    let t_setup = Instant::now();
    let set = set_up(memory);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let phases = Arc::new(Mutex::new(Phases::default()));
    let mut order: Vec<usize> = (0..set.points.len()).collect();
    Rng::derive(seed, round).shuffle(&mut order);
    let mut values = BTreeMap::new();
    let mut calls = Vec::new();
    let t_round = Instant::now();
    for &i in &order {
        let p = &set.points[i];
        tally.attempted += 1;
        let t0 = Instant::now();
        let mut gpu = Gpu::new((p.dev)());
        let t1 = Instant::now();
        if trace {
            gpu.set_phase_sink(Some(Box::new(SharedPhases(phases.clone()))));
        }
        let got = catch_unwind(AssertUnwindSafe(|| (p.run)(&mut gpu)));
        let t2 = Instant::now();
        let Ok(v) = got else {
            tally.fail(format!("{} panicked", p.label));
            continue;
        };
        calls.push(Value::Array(vec![
            Value::Str(p.layer.into()),
            float((t1 - t0).as_secs_f64() * 1e6),
            float((t2 - t1).as_secs_f64() * 1e3),
            float((t2 - t0).as_secs_f64() * 1e3),
        ]));
        tally.check(v.is_finite() && v >= p.range.0 && v <= p.range.1, || {
            format!("{} = {v} outside [{}, {}]", p.label, p.range.0, p.range.1)
        });
        values.insert(p.label.clone(), v);
    }
    let round_s = t_round.elapsed().as_secs_f64();
    for rel in &set.relations {
        if let (Some(&a), Some(&b)) = (values.get(&rel.a), values.get(&rel.b)) {
            let ok = if rel.strict { a < b } else { a <= b };
            tally.check(ok, || {
                format!("{} = {a} must be below {} = {b}", rel.a, rel.b)
            });
        }
    }
    for d in &set.derived {
        if let (Some(&n), Some(&q)) = (values.get(&d.num), values.get(&d.den)) {
            values.insert(d.label.to_string(), n / q);
        }
    }
    for (ci, (name, check)) in set.checks.iter().enumerate() {
        tally.attempted += 1;
        let case_seed = Rng::derive(seed, (round << 16) | ci as u64).next_u64();
        match catch_unwind(AssertUnwindSafe(|| check(case_seed))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => tally.violate(e),
            Err(_) => tally.fail(format!("{name} panicked")),
        }
    }
    // Deviation from the paper, over every value with a published one.
    let devs = set
        .points
        .iter()
        .filter_map(|p| Some((p.paper?, *values.get(&p.label)?)))
        .chain(
            set.derived
                .iter()
                .filter_map(|d| Some((d.paper, *values.get(d.label)?))),
        )
        .map(|(paper, got)| float((got / paper - 1.0).abs() * 100.0))
        .collect();
    let ph = phases.lock().unwrap();
    Value::Object(vec![
        ("setup_s".into(), float(setup_s)),
        ("round_s".into(), float(round_s)),
        ("rss_mb".into(), float(peak_rss_mb(None).unwrap_or(0.0))),
        ("attempted".into(), Value::UInt(tally.attempted)),
        ("failed".into(), Value::UInt(tally.failed)),
        ("violations".into(), Value::UInt(tally.violations)),
        ("calls".into(), Value::Array(calls)),
        (
            "values".into(),
            Value::Object(values.into_iter().map(|(k, v)| (k, float(v))).collect()),
        ),
        ("devs".into(), Value::Array(devs)),
        (
            "phases".into(),
            Value::Array(vec![
                float(ph.launches as f64),
                float(ph.setup.as_secs_f64() * 1e3),
                float(ph.waves.as_secs_f64() * 1e3),
                float(ph.finalize.as_secs_f64() * 1e3),
            ]),
        ),
    ])
    .to_string()
}

fn floats(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Run `paper_tensor` or `paper_memory`: whole rounds, each in a fresh
/// process, until `seconds` have passed (at least one).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Metrics, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let (mut setup_s, mut round_s, mut call_ms, mut gpu_new_us) = (vec![], vec![], vec![], vec![]);
    let mut layer_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut phases: [Vec<f64>; 4] = Default::default();
    let (mut rss, mut devs, mut first) = (0f64, Vec::new(), None);
    let start = Instant::now();
    let mut r = 0u64;
    while r == 0 || start.elapsed().as_secs_f64() < seconds {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--trace",
                if trace { "1" } else { "0" },
                "--round",
                &r.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start round {r}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let rec: Value = text
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("round {r} exited {} without a record", out.status))?;
        let count = |k| rec.get(k).and_then(Value::as_u64).unwrap_or(0);
        tally.absorb(count("attempted"), count("failed"), count("violations"));
        let values = rec.get("values").cloned();
        // The simulator is deterministic: every round reproduces the first.
        match &first {
            None => first = values,
            Some(f) => tally.check(Some(f) == values.as_ref(), || {
                format!("round {r} values differ from round 0")
            }),
        }
        let f = |k| rec.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        setup_s.push(f("setup_s"));
        round_s.push(f("round_s"));
        rss = rss.max(f("rss_mb"));
        devs = floats(&rec, "devs");
        // Each call: [layer, Gpu::new µs, call ms, total ms].
        for call in rec
            .get("calls")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let c = call.as_array().map(Vec::as_slice).unwrap_or_default();
            let n: Vec<f64> = c.iter().skip(1).filter_map(Value::as_f64).collect();
            let (Some(layer), &[new_us, micro_ms, total_ms]) =
                (c.first().and_then(Value::as_str), &n[..])
            else {
                continue;
            };
            gpu_new_us.push(new_us);
            layer_ms
                .entry(layer.to_string())
                .or_default()
                .push(micro_ms);
            call_ms.push(total_ms);
        }
        for (dst, v) in phases.iter_mut().zip(floats(&rec, "phases")) {
            dst.push(v);
        }
        r += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "hbench: {workload}: {r} rounds, median round {:.4} s, median set-up {:.6} s",
        median(&round_s),
        median(&setup_s)
    );

    let mut m = Metrics::default();
    if trace {
        for (layer, samples) in layer_ms {
            m.set(layer, median(&samples), "ms");
        }
        m.set("sim.launches", median(&phases[0]), "count");
        m.set("sim.setup_ms", median(&phases[1]), "ms");
        m.set("sim.waves_ms", median(&phases[2]), "ms");
        m.set("sim.finalize_ms", median(&phases[3]), "ms");
        m.set("sim.gpu_new_us", median(&gpu_new_us), "us");
    } else {
        m.set("setup_s", median(&setup_s), "s");
        m.set("sweep_s", median(&round_s), "s");
        m.set("paper_dev_median_pct", median(&devs), "%");
        m.set(
            "paper_points_within_10pct",
            devs.iter().filter(|&&d| d <= 10.0).count() as f64,
            "count",
        );
        m.set("req_p50_ms", quantile(&call_ms, 0.5), "ms");
        m.set("req_p99_ms", quantile(&call_ms, 0.99), "ms");
        m.set("req_per_s", call_ms.len() as f64 / elapsed, "req/s");
        m.set("peak_rss_mb", rss, "MB");
    }
    Ok((m, tally))
}
