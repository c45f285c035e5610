//! `hsimd_open`: an open loop of seeded Poisson arrivals against an
//! `hsimd` daemon started as its own process.

use crate::kernels;
use crate::util::{
    cpu_seconds, median, on_one_cpu, peak_rss_mb, quantile, KeepAwake, Metrics, Rng, Tally,
};
use hopper_micro::paper as P;
use hopper_serve::{canonical_response, Client, ReportKind, RunSpec};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load of record, requests per second (`--rate` overrides it
/// for capacity sweeps).  At this rate no request meets a full queue and
/// the backlog stays flat (see README, "Offered rate").
pub const RATE: f64 = 80.0;
/// Sender threads, each holding at most one connection: the host's cores.
const SENDERS: usize = 2;
/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// The golden trace every replay request is built from.
pub const GOLDEN_TRACE: &str = "crates/replay/golden/histogram.htrace";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Alu,
    AluLong,
    Stream,
    Chase,
    Profile,
    Replay,
    Infer,
}

/// One round of the mix: `(kind, fresh requests, repeats of earlier
/// ones)`.  Every run sends whole rounds; the seed shuffles each round's
/// order and draws each fresh request's parameters.  Latency classes,
/// cheapest first: repeats and infer (24 %, under 2 ms), replay (10 %, its
/// 10 kB request dominates), ALU misses (32 %), the other kernel misses
/// (32 %) and one long ALU loop (2 %), several times the cost of any
/// other request.  So the median falls mid-way through the ALU class and
/// the p99 at the middle of the long-loop class, each far from a class
/// boundary, where queueing coincidences would move them.  The long
/// request is an ALU loop, not a stream, so that how often two of them
/// overlap does not set the daemon's peak memory.
const MIX: [(Kind, usize, usize); 7] = [
    (Kind::Infer, 3, 2),
    (Kind::Replay, 2, 3),
    (Kind::Alu, 16, 3),
    (Kind::Stream, 7, 2),
    (Kind::Profile, 6, 2),
    (Kind::Chase, 3, 0),
    (Kind::AluLong, 1, 0),
];

/// Requests per round.
const ROUND_LEN: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < MIX.len() {
        n += MIX[i].1 + MIX[i].2;
        i += 1;
    }
    n
};

/// One round of `(kind, repeats an earlier request)`, unshuffled.
fn round() -> Vec<(Kind, bool)> {
    MIX.iter()
        .flat_map(|&(kind, fresh, repeats)| {
            let fresh = std::iter::repeat_n((kind, false), fresh);
            fresh.chain(std::iter::repeat_n((kind, true), repeats))
        })
        .collect()
}

/// Loop bounds per kind (the work of every fresh request of that kind).
const ALU_ITERS: u32 = 400;
const ALU_LONG_ITERS: u32 = 5000;
const STREAM_ITERS: u32 = 24;
const CHASE_ITERS: u32 = 8192;
const PROFILE_ITERS: u32 = 40;

/// A repeat targets an original this many requests back, so the original
/// has long finished (and cannot have been evicted from the 64-entry cache).
const REPEAT_GAP: std::ops::RangeInclusive<usize> = 6..=40;

/// What a correct answer must show, derived apart from the daemon.
#[derive(Debug, Clone)]
enum Expect {
    /// `result.instructions` from the loop bound and geometry.
    Stats { instructions: u64 },
    /// Table IV's shared-memory latency, read as cycles per iteration.
    Chase {
        instructions: u64,
        iters: u32,
        paper: f64,
    },
    /// Stall conservation and issued == derived instruction count.
    Profile { instructions: u64 },
    /// Replayed instructions == the trace's record count.
    Replay { records: u64 },
    /// Every scenario request completes.
    Infer { requests: u64 },
}

#[derive(Debug, Clone)]
struct Planned {
    due: f64,
    kind: Kind,
    line: String,
    expect: Expect,
    /// Index of the earlier request this one repeats byte for byte.
    repeat_of: Option<usize>,
}

struct Outcome {
    lag_ms: f64,
    latency_ms: f64,
    response: std::io::Result<String>,
}

/// The hsimd process; killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Start the daemon and wait for its first `ping` answer.
    fn start(bin: &Path) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: line
                .trim()
                .rsplit(' ')
                .next()
                .unwrap_or_default()
                .to_string(),
        };
        if !line.starts_with("hsimd listening on ") {
            return Err(format!("unexpected daemon banner {line:?}"));
        }
        let pong = Client::new(daemon.addr.clone())
            .ping()
            .map_err(|e| format!("ping: {e}"))?;
        if !pong.contains("\"pong\"") {
            return Err(format!("unexpected ping answer {pong}"));
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Graceful shutdown; kill if the drain does not finish in time.
    fn stop(mut self) {
        let _ = Client::new(self.addr.clone()).shutdown();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        eprintln!("hbench: hsimd did not drain within 20 s; killing it");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Record lines of an `HTRACE v1` text trace: every line after
/// `asm_end` that starts with a PC.
fn trace_records(text: &str) -> u64 {
    text.lines()
        .skip_while(|l| l.trim() != "asm_end")
        .filter(|l| {
            l.split_whitespace()
                .next()
                .is_some_and(|t| t.parse::<u32>().is_ok())
        })
        .count() as u64
}

const DEVICES: [&str; 3] = ["h800", "a100", "rtx4090"];

/// Table IV's shared-memory latency for a wire device name.
fn smem_paper(device: &str) -> f64 {
    let row = &P::TABLE_IV[1];
    match device {
        "h800" => row.h800,
        "a100" => row.a100,
        _ => row.rtx4090,
    }
}

/// Build the whole run's request sequence from the seed.
fn plan(seed: u64, rounds: usize, rate: f64, trace_text: &str, timings: bool) -> Vec<Planned> {
    let mut rng = Rng::derive(seed, 0x6873_696d);
    let mut slots: Vec<(Kind, bool)> = Vec::new();
    for _ in 0..rounds {
        let mut round = round();
        rng.shuffle(&mut round);
        slots.extend(round);
    }
    // A repeat needs an earlier original of its kind: in the first round,
    // move it behind the first one.
    for j in 0..slots.len() {
        let (kind, repeat) = slots[j];
        if repeat && !slots[..j].iter().any(|&(k, r)| k == kind && !r) {
            let later = (j + 1..slots.len())
                .find(|&i| slots[i] == (kind, false))
                .expect("every round holds an original of each kind");
            slots.swap(j, later);
        }
    }

    let mut chase_no = 0usize;
    let mut out: Vec<Planned> = Vec::with_capacity(slots.len());
    for (j, &(kind, repeat)) in slots.iter().enumerate() {
        if repeat {
            let candidates: Vec<usize> = (0..j)
                .filter(|&i| out[i].kind == kind && out[i].repeat_of.is_none())
                .collect();
            let in_gap: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| REPEAT_GAP.contains(&(j - i)))
                .collect();
            let pool = if in_gap.is_empty() {
                &candidates
            } else {
                &in_gap
            };
            let i = pool[rng.below(pool.len() as u64) as usize];
            let mut p = out[i].clone();
            p.repeat_of = Some(i);
            out.push(p);
            continue;
        }
        // Work per kind is fixed; the seed varies only what leaves the
        // work unchanged (constants, addresses, nonces, scenario seeds).
        let mut addrs = || {
            vec![
                0x10_0000 + rng.below(256) * 0x10_0000,
                0x4000_0000 + rng.below(256) * 0x10_0000,
            ]
        };
        let (mut spec, expect) = match kind {
            Kind::Alu | Kind::AluLong => {
                let iters = if kind == Kind::Alu {
                    ALU_ITERS
                } else {
                    ALU_LONG_ITERS
                };
                let k = kernels::alu(rng.below(1 << 20) as u32, iters);
                let s = RunSpec::new(k.text(), "h800", 4, 128);
                (
                    s,
                    Expect::Stats {
                        instructions: k.instructions(4, 128),
                    },
                )
            }
            Kind::Stream => {
                let k = kernels::stream_copy(STREAM_ITERS);
                let mut s = RunSpec::new(k.text(), "a100", 8, 256);
                s.params = addrs();
                (
                    s,
                    Expect::Stats {
                        instructions: k.instructions(8, 256),
                    },
                )
            }
            Kind::Chase => {
                // Devices in turn, so each paper value has a fixed share;
                // a salt constant varies the digest.
                let device = DEVICES[chase_no % 3];
                chase_no += 1;
                let k = kernels::smem_chase(rng.below(1 << 20) as u32, CHASE_ITERS);
                let s = RunSpec::new(k.text(), device, 1, 32);
                let expect = Expect::Chase {
                    instructions: k.instructions(1, 32),
                    iters: CHASE_ITERS,
                    paper: smem_paper(device),
                };
                (s, expect)
            }
            Kind::Profile => {
                let k = kernels::stream_copy(PROFILE_ITERS);
                let mut s = RunSpec::new(k.text(), "h800", 4, 256);
                s.params = addrs();
                s.report = ReportKind::Profile;
                (
                    s,
                    Expect::Profile {
                        instructions: k.instructions(4, 256),
                    },
                )
            }
            Kind::Replay => {
                // A comment changes the trace digest (a cache miss) but not
                // the replay.
                let text = format!("{trace_text}# nonce {:016x}\n", rng.next_u64());
                let mut s = RunSpec::new(String::new(), "h800", 2, 128);
                s.params = vec![0x8000];
                let records = trace_records(&text);
                s.trace = Some(text);
                (s, Expect::Replay { records })
            }
            Kind::Infer => {
                let requests = 16;
                let scenario = format!(
                    r#"{{"model":"llama2-7b","requests":{requests},"qps":20.0,"seed":{}}}"#,
                    rng.below(1 << 30)
                );
                let mut s = RunSpec::new(String::new(), "h800", 1, 1);
                s.report = ReportKind::Infer;
                s.infer = Some(serde_json::from_str(&scenario).expect("scenario JSON"));
                (s, Expect::Infer { requests })
            }
        };
        spec.timings = timings;
        out.push(Planned {
            due: 0.0,
            kind,
            line: spec.to_request_line(),
            expect,
            repeat_of: None,
        });
    }

    // Poisson arrivals conditioned on `n` of them in `[0, n / rate)`:
    // `n + 1` exponential gaps scaled to span exactly that interval.
    let gaps: Vec<f64> = (0..=out.len()).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let span = out.len() as f64 / rate;
    let mut t = 0.0;
    for (p, g) in out.iter_mut().zip(&gaps) {
        t += g / total * span;
        p.due = t;
    }
    out
}

/// Drive the plan with `SENDERS` threads, each sending its next request
/// when due (or when free, if it fell behind).
fn drive(addr: &str, plan: &[Planned]) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Outcome>>> = Mutex::new((0..plan.len()).map(|_| None).collect());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SENDERS {
            scope.spawn(|| {
                let client = Client::new(addr.to_string());
                loop {
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    if j >= plan.len() {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(plan[j].due);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let response = client.send_line(&plan[j].line);
                    let done = Instant::now();
                    results.lock().unwrap()[j] = Some(Outcome {
                        lag_ms: (sent - due).as_secs_f64() * 1e3,
                        latency_ms: (done - due).as_secs_f64() * 1e3,
                        response,
                    });
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let outcomes = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("every planned request was sent"))
        .collect();
    (outcomes, elapsed)
}

fn u(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Stage name → (start_us, dur_us) from a response's `timings`.
fn stages(v: &Value) -> BTreeMap<String, (f64, f64)> {
    let mut out = BTreeMap::new();
    for s in v
        .get("timings")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        if let (Some(name), Some(start), Some(dur)) = (
            s.get("name").and_then(Value::as_str),
            u(s, &["start_us"]),
            u(s, &["dur_us"]),
        ) {
            out.insert(name.to_string(), (start, dur));
        }
    }
    out
}

/// Check one response against what the plan says it must show; returns
/// the chase latency deviation (%) for paper-point requests.
fn check(p: &Planned, j: usize, v: &Value, tally: &mut Tally) -> Option<f64> {
    let r = v.get("result")?;
    let instructions = u(r, &["instructions"]);
    match p.expect {
        Expect::Stats { instructions: want } => {
            tally.check(instructions == Some(want as f64), || {
                format!("request {j}: instructions {instructions:?}, loop bounds give {want}")
            });
        }
        Expect::Chase {
            instructions: want,
            iters,
            paper,
        } => {
            tally.check(instructions == Some(want as f64), || {
                format!("request {j}: instructions {instructions:?}, loop bounds give {want}")
            });
            let per_iter = u(r, &["cycles"]).unwrap_or(0.0) / iters as f64;
            return Some((per_iter / paper - 1.0).abs() * 100.0);
        }
        Expect::Profile { instructions: want } => {
            let st = r.get("stalls");
            let get = |k: &str| st.and_then(|s| u(s, &[k])).unwrap_or(-1.0);
            let stalled: f64 = st
                .and_then(|s| s.get("stalled"))
                .and_then(Value::as_object)
                .map(|o| o.iter().filter_map(|(_, x)| x.as_f64()).sum())
                .unwrap_or(-1.0);
            let (issued, idle, slots) = (get("issued"), get("idle"), get("slot_cycles"));
            tally.check(issued + stalled + idle == slots, || {
                format!("request {j}: issued {issued} + stalled {stalled} + idle {idle} != slot cycles {slots}")
            });
            tally.check(issued == want as f64, || {
                format!("request {j}: profile issued {issued}, loop bounds give {want}")
            });
        }
        Expect::Replay { records } => {
            tally.check(instructions == Some(records as f64), || {
                format!("request {j}: replayed {instructions:?} instructions, trace has {records} records")
            });
        }
        Expect::Infer { requests } => {
            let completed = u(r, &["completed"]);
            let outcome = r.get("outcome").and_then(Value::as_str);
            tally.check(completed == Some(requests as f64) && outcome == Some("ok"), || {
                format!("request {j}: infer outcome {outcome:?}, {completed:?}/{requests} completed")
            });
            for dist in ["ttft_ms", "tpot_ms", "e2e_ms"] {
                let (p50, p99) = (u(r, &[dist, "p50"]), u(r, &[dist, "p99"]));
                tally.check(matches!((p50, p99), (Some(a), Some(b)) if a <= b), || {
                    format!("request {j}: {dist} p50 {p50:?} > p99 {p99:?}")
                });
            }
        }
    }
    None
}

/// Prometheus samples `name{labels} value` whose name matches.
fn scrape_sum(text: &str, name: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with(name) && l[name.len()..].starts_with(['{', ' ']))
        .filter(|l| label.is_none_or(|lab| l.contains(lab)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

pub fn run(
    hsimd: &Path,
    seed: u64,
    seconds: f64,
    rate: f64,
    trace: bool,
) -> Result<(Metrics, Tally), String> {
    let trace_text = std::fs::read_to_string(GOLDEN_TRACE)
        .map_err(|e| format!("cannot read {GOLDEN_TRACE}: {e}"))?;
    let rounds = ((seconds * rate / ROUND_LEN as f64).round() as usize).max(1);
    let plan = plan(seed, rounds, rate, &trace_text, trace);

    // Timed starts on one CPU, so that `setup_s` reads the daemon's own
    // start-up rather than the hypervisor's wake-ups; the daemon that
    // serves the run starts afterwards, free to use every CPU.
    let setup_times = on_one_cpu(|| {
        (0..SETUP_REPS)
            .map(|_| {
                let (d, secs) = Daemon::start(hsimd)?;
                Daemon::stop(d);
                Ok(secs)
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    let (daemon, _) = Daemon::start(hsimd)?;
    let awake = KeepAwake::start();

    let cpu_before = cpu_seconds(daemon.child.id());
    let (outcomes, elapsed) = drive(&daemon.addr, &plan);
    let cpu_s = cpu_seconds(daemon.child.id())
        .zip(cpu_before)
        .map(|(after, before)| after - before);
    let client = Client::new(daemon.addr.clone());
    let exposition = if trace {
        client.metrics().map_err(|e| e.to_string())?
    } else {
        String::new()
    };
    let rss = peak_rss_mb(Some(daemon.child.id()));
    Daemon::stop(daemon);
    drop(awake);

    let mut tally = Tally::default();
    let mut parsed: Vec<Option<Value>> = Vec::with_capacity(plan.len());
    let mut chase_dev = Vec::new();
    for (j, (p, o)) in plan.iter().zip(&outcomes).enumerate() {
        tally.attempted += 1;
        let v = match &o.response {
            Err(e) => {
                tally.fail(format!("request {j}: {e}"));
                None
            }
            Ok(line) => match serde_json::from_str(line) {
                Ok(v) if v.get("status").and_then(Value::as_str) == Some("ok") => Some(v),
                _ => {
                    tally.fail(format!("request {j}: {}", &line[..line.len().min(300)]));
                    None
                }
            },
        };
        if let Some(v) = &v {
            if let Some(dev) = check(p, j, v, &mut tally) {
                chase_dev.push(dev);
            }
            if let (Some(i), Ok(line)) = (p.repeat_of, &o.response) {
                if let Ok(orig) = &outcomes[i].response {
                    tally.check(canonical_response(line) == canonical_response(orig), || {
                        format!("request {j} repeats {i} but answers differently")
                    });
                }
            }
        }
        parsed.push(v);
    }
    let latency: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    // A growing backlog shows as the last third of the run answering
    // slower than the first.
    let third = latency.len() / 3;
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_ms).collect();
    eprintln!(
        "hbench: rate {rate}/s: p50 {:.3} ms, p99 {:.3} ms, lag p99 {:.3} ms, p99 first third {:.3} ms, last third {:.3} ms",
        quantile(&latency, 0.5),
        quantile(&latency, 0.99),
        quantile(&lags, 0.99),
        quantile(&latency[..third], 0.99),
        quantile(&latency[latency.len() - third..], 0.99),
    );
    let mut by_kind: BTreeMap<(Kind, bool), Vec<f64>> = BTreeMap::new();
    for (p, o) in plan.iter().zip(&outcomes) {
        by_kind
            .entry((p.kind, p.repeat_of.is_some()))
            .or_default()
            .push(o.latency_ms);
    }
    for ((kind, repeat), lat) in &by_kind {
        eprintln!(
            "hbench: {kind:?}{} n={} p25={:.3} p50={:.3} p75={:.3} p99={:.3} ms",
            if *repeat { " repeat" } else { "" },
            lat.len(),
            quantile(lat, 0.25),
            quantile(lat, 0.5),
            quantile(lat, 0.75),
            quantile(lat, 0.99)
        );
    }
    let completed = parsed.iter().filter(|v| v.is_some()).count();

    let mut m = Metrics::default();
    if !trace {
        m.set("setup_s", median(&setup_times), "s");
        // The daemon's CPU time per round of the fixed mix.
        m.set("sweep_s", cpu_s.unwrap_or(0.0) / rounds as f64, "s");
        m.set("paper_dev_median_pct", median(&chase_dev), "%");
        let within = chase_dev.iter().filter(|&&d| d <= 10.0).count() as f64;
        m.set("paper_points_within_10pct", within / rounds as f64, "count");
        m.set("req_p50_ms", quantile(&latency, 0.5), "ms");
        m.set("req_p99_ms", quantile(&latency, 0.99), "ms");
        m.set("req_per_s", completed as f64 / elapsed, "req/s");
        m.set("peak_rss_mb", rss.unwrap_or(0.0), "MB");
        return Ok((m, tally));
    }

    // Per-layer: the daemon's own timeline stages, per request kind.
    let mut stage: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut ns_per_instr: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut prof_render = Vec::new();
    let mut infer_sim = Vec::new();
    for (p, v) in plan.iter().zip(&parsed) {
        let Some(v) = v else { continue };
        let st = stages(v);
        for name in ["parse", "assemble", "cache", "simulate", "render"] {
            if let Some(&(_, dur)) = st.get(name) {
                stage.entry(name).or_default().push(dur);
            }
        }
        if let Some(&(q_start, q_dur)) = st.get("queue") {
            stage.entry("queue_wait").or_default().push(q_dur);
            if let Some(&(s_start, _)) = st.get("simulate") {
                stage
                    .entry("pre_simulate")
                    .or_default()
                    .push(s_start - (q_start + q_dur));
            }
        }
        let Some(&(_, sim_us)) = st.get("simulate") else {
            continue;
        };
        let r = v.get("result");
        let instrs = match p.kind {
            Kind::Profile => r.and_then(|r| u(r, &["stalls", "issued"])),
            _ => r.and_then(|r| u(r, &["instructions"])),
        };
        if let Some(n) = instrs.filter(|&n| n > 0.0) {
            let kind = if p.kind == Kind::AluLong {
                Kind::Alu
            } else {
                p.kind
            };
            ns_per_instr.entry(kind).or_default().push(sim_us * 1e3 / n);
        }
        match p.kind {
            Kind::Profile => prof_render.extend(st.get("render").map(|s| s.1)),
            Kind::Infer => infer_sim.push(sim_us),
            _ => {}
        }
    }
    for (name, samples) in &stage {
        m.set(format!("serve.{name}_us"), median(samples), "us");
    }
    m.set(
        "serve.queue_wait_p99_us",
        quantile(&stage.get("queue_wait").cloned().unwrap_or_default(), 0.99),
        "us",
    );
    m.set(
        "serve.simulate_p99_us",
        quantile(&stage.get("simulate").cloned().unwrap_or_default(), 0.99),
        "us",
    );
    for (kind, name) in [
        (Kind::Alu, "alu"),
        (Kind::Stream, "stream"),
        (Kind::Profile, "profile"),
        (Kind::Replay, "replay"),
    ] {
        let samples = ns_per_instr.get(&kind).cloned().unwrap_or_default();
        m.set(format!("sim.ns_per_instr.{name}"), median(&samples), "ns");
    }
    m.set("prof.render_us", median(&prof_render), "us");
    m.set("infer.simulate_us", median(&infer_sim), "us");
    let hits = scrape_sum(&exposition, "hsimd_cache_ops_total", Some("result=\"hit\""));
    let misses = scrape_sum(
        &exposition,
        "hsimd_cache_ops_total",
        Some("result=\"miss\""),
    );
    m.set("serve.cache_hits", hits, "count");
    m.set("serve.cache_misses", misses, "count");
    m.set(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.set(
        "sim.launches",
        scrape_sum(&exposition, "hsimd_runs_total", None),
        "count",
    );
    for phase in ["setup", "waves", "finalize"] {
        let us = scrape_sum(
            &exposition,
            "hsim_phase_duration_us_sum",
            Some(&format!("phase=\"{phase}\"")),
        );
        m.set(format!("sim.{phase}_ms"), us / 1e3, "ms");
    }
    m.set("sim.gpu_new_us", gpu_new_us(), "us");
    m.set("load.lag_p99_ms", quantile(&lags, 0.99), "ms");
    Ok((m, tally))
}

/// `Gpu::new` as each daemon job calls it, timed in this process (the
/// daemon exposes no hook around it).
fn gpu_new_us() -> f64 {
    let mut samples = Vec::new();
    for _ in 0..10 {
        for dev in hopper_sim::DeviceConfig::all() {
            let t0 = Instant::now();
            let gpu = hopper_sim::Gpu::new(dev);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            drop(gpu);
        }
    }
    median(&samples)
}
