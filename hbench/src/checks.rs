//! Functional checks computed apart from the program: seeded inputs are
//! encoded here bit by bit, and every expected output (a GEMM, a copy, a
//! pointer-chase endpoint) is computed on the host without calling the
//! simulator's numerics.

use crate::kernels;
use crate::util::Rng;
use hopper_isa::mma::OperandSource;
use hopper_isa::{DType, KernelBuilder, MemSpace, MmaDesc, Reg, TileId};
use hopper_sim::{DeviceConfig, Gpu, Launch};

/// One tensor-core GEMM check: `D = A·B + C` through `ld_tile`,
/// `mma`/`wgmma` and `st_tile` on one device.
#[derive(Debug, Clone, Copy)]
pub struct GemmCheck {
    pub name: &'static str,
    pub dev: fn() -> DeviceConfig,
    pub desc: MmaDesc,
    pub wgmma: bool,
}

/// The fixed set: f16, bf16, e4m3 and s8 operands, f16/f32/s32
/// accumulators, one 2:4-sparse shape, `mma` on all three devices and
/// `wgmma` (SS and RS) on the H800.
pub fn gemm_checks() -> Vec<GemmCheck> {
    let mma = |k, ab, cd, sparse| MmaDesc::mma(16, 8, k, ab, cd, sparse).expect("valid mma");
    let wg = |ab, cd, src| MmaDesc::wgmma(64, ab, cd, false, src).expect("valid wgmma");
    vec![
        GemmCheck {
            name: "mma f16.f32 m16n8k16 h800",
            dev: DeviceConfig::h800,
            desc: mma(16, DType::F16, DType::F32, false),
            wgmma: false,
        },
        GemmCheck {
            name: "mma f16.f16 m16n8k16 a100",
            dev: DeviceConfig::a100,
            desc: mma(16, DType::F16, DType::F16, false),
            wgmma: false,
        },
        GemmCheck {
            name: "mma bf16.f32 m16n8k16 a100",
            dev: DeviceConfig::a100,
            desc: mma(16, DType::BF16, DType::F32, false),
            wgmma: false,
        },
        GemmCheck {
            name: "mma s8.s32 m16n8k32 rtx4090",
            dev: DeviceConfig::rtx4090,
            desc: mma(32, DType::S8, DType::S32, false),
            wgmma: false,
        },
        GemmCheck {
            name: "mma.sp f16.f32 m16n8k32 h800",
            dev: DeviceConfig::h800,
            desc: mma(32, DType::F16, DType::F32, true),
            wgmma: false,
        },
        GemmCheck {
            name: "wgmma e4m3.f32 m64n64k32 SS h800",
            dev: DeviceConfig::h800,
            desc: wg(DType::E4M3, DType::F32, OperandSource::SharedShared),
            wgmma: true,
        },
        GemmCheck {
            name: "wgmma f16.f32 m64n64k16 RS h800",
            dev: DeviceConfig::h800,
            desc: wg(DType::F16, DType::F32, OperandSource::RegShared),
            wgmma: true,
        },
        GemmCheck {
            name: "wgmma s8.s32 m64n64k32 SS h800",
            dev: DeviceConfig::h800,
            desc: wg(DType::S8, DType::S32, OperandSource::SharedShared),
            wgmma: true,
        },
    ]
}

/// A seeded element: its raw little-endian bits and its exact value.
fn draw(rng: &mut Rng, dtype: DType) -> (u64, f64) {
    let sign = rng.below(2);
    let s = if sign == 1 { -1.0 } else { 1.0 };
    // Normal values in ±[1/16, 1): exact in every format used here.
    let e = rng.below(4) as i32 - 4;
    match dtype {
        DType::F16 => {
            let m = rng.below(1 << 10);
            let bits = (sign << 15) | (((e + 15) as u64) << 10) | m;
            (bits, s * (1.0 + m as f64 / 1024.0) * 2f64.powi(e))
        }
        DType::BF16 => {
            let m = rng.below(1 << 7);
            let bits = (sign << 15) | (((e + 127) as u64) << 7) | m;
            (bits, s * (1.0 + m as f64 / 128.0) * 2f64.powi(e))
        }
        DType::E4M3 => {
            let m = rng.below(1 << 3);
            let bits = (sign << 7) | (((e + 7) as u64) << 3) | m;
            (bits, s * (1.0 + m as f64 / 8.0) * 2f64.powi(e))
        }
        DType::F32 => {
            let m = rng.below(1 << 10);
            let v = s * (1.0 + m as f64 / 1024.0) * 2f64.powi(e);
            ((v as f32).to_bits() as u64, v)
        }
        DType::S8 => {
            let v = rng.below(256) as i64 - 128;
            (v as i8 as u8 as u64, v as f64)
        }
        DType::S32 => {
            let v = rng.below(2001) as i64 - 1000;
            (v as i32 as u32 as u64, v as f64)
        }
        other => unreachable!("no generator for {other:?}"),
    }
}

fn elem_bytes(dtype: DType) -> usize {
    match dtype {
        DType::E4M3 | DType::S8 => 1,
        DType::F16 | DType::BF16 => 2,
        DType::F32 | DType::S32 => 4,
        other => unreachable!("no encoding for {other:?}"),
    }
}

/// Decode one stored output element (`f32`, `s32` or IEEE half).
fn decode(dtype: DType, raw: &[u8]) -> f64 {
    match dtype {
        DType::F32 => f32::from_le_bytes(raw.try_into().unwrap()) as f64,
        DType::S32 => i32::from_le_bytes(raw.try_into().unwrap()) as f64,
        DType::F16 => {
            let h = u16::from_le_bytes(raw.try_into().unwrap());
            let sign = if h >> 15 == 1 { -1.0 } else { 1.0 };
            let exp = ((h >> 10) & 0x1f) as i32;
            let man = (h & 0x3ff) as f64;
            match exp {
                0 => sign * man * 2f64.powi(-24),
                31 => f64::NAN,
                _ => sign * (1.0 + man / 1024.0) * 2f64.powi(exp - 15),
            }
        }
        other => unreachable!("no decoder for {other:?}"),
    }
}

/// A seeded row-major matrix: raw bytes plus exact values.  With
/// `sparse24`, every group of four along a row keeps two random
/// positions and zeroes the others.
fn matrix(
    rng: &mut Rng,
    dtype: DType,
    rows: usize,
    cols: usize,
    sparse24: bool,
) -> (Vec<u8>, Vec<f64>) {
    let eb = elem_bytes(dtype);
    let mut bytes = Vec::with_capacity(rows * cols * eb);
    let mut vals = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let mut keep = vec![true; cols];
        if sparse24 {
            for g in (0..cols).step_by(4) {
                let a = rng.below(4) as usize;
                let b = (a + 1 + rng.below(3) as usize) % 4;
                for (p, kept) in keep[g..g + 4].iter_mut().enumerate() {
                    *kept = p == a || p == b;
                }
            }
        }
        for kept in keep {
            let (raw, v) = if kept { draw(rng, dtype) } else { (0, 0.0) };
            bytes.extend_from_slice(&raw.to_le_bytes()[..eb]);
            vals.push(v);
        }
    }
    (bytes, vals)
}

/// Run one GEMM check with inputs drawn from `seed`; `Err` describes the
/// first mismatching element.  Integer results must match exactly; float
/// results must sit within the rounding bound of a `k+1`-term recursive
/// sum in the accumulator's precision, `γ(k+1)·Σ|terms|`, plus the
/// subnormal slack of an `f16` accumulator.
pub fn run_gemm_check(chk: &GemmCheck, seed: u64) -> Result<(), String> {
    let d = &chk.desc;
    let (m, n, k) = (d.m as usize, d.n as usize, d.k as usize);
    let mut rng = Rng::new(seed);
    let (a_bytes, a) = matrix(&mut rng, d.ab, m, k, d.sparse);
    let (b_bytes, b) = matrix(&mut rng, d.ab, k, n, false);
    let (c_bytes, c) = matrix(&mut rng, d.cd, m, n, false);

    let mut gpu = Gpu::new((chk.dev)());
    let out_bytes = m * n * elem_bytes(d.cd);
    let bufs: Vec<u64> = [a_bytes.len(), b_bytes.len(), c_bytes.len(), out_bytes]
        .iter()
        .map(|&len| gpu.alloc(len as u64).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    gpu.write(bufs[0], &a_bytes);
    gpu.write(bufs[1], &b_bytes);
    gpu.write(bufs[2], &c_bytes);

    let mut kb = KernelBuilder::new("hbench_gemm_check");
    let (m16, n16, k16) = (m as u16, n as u16, k as u16);
    kb.ld_tile(TileId(0), d.ab, m16, k16, MemSpace::Global, Reg(0), 0);
    kb.ld_tile(TileId(1), d.ab, k16, n16, MemSpace::Global, Reg(1), 0);
    kb.ld_tile(TileId(2), d.cd, m16, n16, MemSpace::Global, Reg(2), 0);
    if chk.wgmma {
        kb.wgmma_fence();
        kb.wgmma(*d, TileId(2), TileId(0), TileId(1));
        kb.wgmma_commit();
        kb.wgmma_wait(0);
    } else {
        kb.mma(*d, TileId(2), TileId(0), TileId(1), TileId(2));
    }
    kb.st_tile(TileId(2), MemSpace::Global, Reg(3), 0);
    kb.exit();
    let block = if chk.wgmma { 128 } else { 32 };
    gpu.launch(
        &kb.build(),
        &Launch::new(1, block).with_params(bufs.clone()),
    )
    .map_err(|e| e.to_string())?;
    let out = gpu.read(bufs[3], out_bytes);

    let eb = elem_bytes(d.cd);
    let (u, tiny) = match d.cd {
        DType::F16 => (2f64.powi(-11), 2f64.powi(-25)),
        _ => (2f64.powi(-24), 0.0),
    };
    let terms = (k + 1) as f64;
    let gamma = terms * u / (1.0 - terms * u);
    for i in 0..m {
        for j in 0..n {
            let mut exact = c[i * n + j];
            let mut mag = exact.abs();
            for kk in 0..k {
                let p = a[i * k + kk] * b[kk * n + j];
                exact += p;
                mag += p.abs();
            }
            let got = decode(d.cd, &out[(i * n + j) * eb..(i * n + j + 1) * eb]);
            let ok = if d.cd == DType::S32 {
                got == exact
            } else {
                (got - exact).abs() <= gamma * mag + terms * tiny
            };
            if !ok {
                return Err(format!(
                    "{}: D[{i}][{j}] = {got}, host GEMM = {exact} (|sum| bound {})",
                    chk.name,
                    gamma * mag
                ));
            }
        }
    }
    Ok(())
}

/// Streaming copy on the simulator: the destination must equal the
/// seeded source byte for byte.
pub fn run_copy_check(dev: DeviceConfig, seed: u64) -> Result<(), String> {
    let (grid, block, iters) = (4u32, 256u32, 8u32);
    let bytes = (grid * block * iters * 16) as usize;
    let mut rng = Rng::new(seed);
    let src: Vec<u8> = (0..bytes).map(|_| rng.below(256) as u8).collect();
    let mut gpu = Gpu::new(dev);
    let s = gpu.alloc(bytes as u64).map_err(|e| e.to_string())?;
    let d = gpu.alloc(bytes as u64).map_err(|e| e.to_string())?;
    gpu.write(s, &src);
    let k = kernels::stream_copy(iters).assemble("hbench_copy_check")?;
    gpu.launch(&k, &Launch::new(grid, block).with_params(vec![s, d]))
        .map_err(|e| e.to_string())?;
    let got = gpu.read(d, bytes);
    match got.iter().zip(&src).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!(
            "copy on {}: byte {i} of {bytes} is {:#04x}, source has {:#04x}",
            gpu.device().name,
            got[i],
            src[i]
        )),
    }
}

/// Pointer chase over a seeded random ring: the address the kernel ends
/// on must be the one reached by walking the same ring on the host.
pub fn run_chase_check(dev: DeviceConfig, seed: u64) -> Result<(), String> {
    let (nodes, stride, steps) = (4096u64, 64u64, 3000u32);
    let mut rng = Rng::new(seed);
    let mut order: Vec<u64> = (0..nodes).collect();
    rng.shuffle(&mut order);
    let mut gpu = Gpu::new(dev);
    let ring = gpu.alloc(nodes * stride).map_err(|e| e.to_string())?;
    let out = gpu.alloc(8).map_err(|e| e.to_string())?;
    let addr = |node: u64| ring + node * stride;
    let mut next = vec![0u64; nodes as usize];
    for w in 0..nodes as usize {
        let (from, to) = (order[w], order[(w + 1) % nodes as usize]);
        next[from as usize] = addr(to);
        gpu.write(addr(from), &addr(to).to_le_bytes());
    }
    let start = addr(order[0]);
    let mut want = start;
    for _ in 0..steps {
        want = next[((want - ring) / stride) as usize];
    }
    let k = kernels::chase_to_out(steps).assemble("hbench_chase_check")?;
    gpu.launch(&k, &Launch::new(1, 1).with_params(vec![start, out]))
        .map_err(|e| e.to_string())?;
    let got = u64::from_le_bytes(gpu.read(out, 8).try_into().unwrap());
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "chase on {}: ended on {got:#x}, host walk ends on {want:#x}",
            gpu.device().name
        ))
    }
}
