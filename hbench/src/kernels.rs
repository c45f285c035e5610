//! The benchmark's own kernels, kept in a counted-loop form so the number
//! of warp instructions a launch must execute follows from the loop bound
//! and the launch geometry alone.

/// `prologue; LOOP: body; counter++; setp; bra; epilogue; exit;`
#[derive(Debug, Clone)]
pub struct LoopKernel {
    directives: Vec<String>,
    prologue: Vec<String>,
    body: Vec<String>,
    epilogue: Vec<String>,
    counter: u16,
    iters: u32,
}

/// Loop-control instructions per iteration: add, setp, bra.
const LOOP_CONTROL: u64 = 3;

impl LoopKernel {
    pub fn text(&self) -> String {
        let c = self.counter;
        let mut lines = self.directives.clone();
        lines.extend(self.prologue.iter().cloned());
        lines.push("LOOP:".into());
        lines.extend(self.body.iter().cloned());
        lines.push(format!("add.s32 %r{c}, %r{c}, 1;"));
        lines.push(format!("setp.lt.s32 %p0, %r{c}, {};", self.iters));
        lines.push("@%p0 bra LOOP;".into());
        lines.extend(self.epilogue.iter().cloned());
        lines.push("exit;".into());
        lines.join("\n")
    }

    /// Warp instructions one launch executes (`exit` included).
    pub fn instructions(&self, grid: u32, block: u32) -> u64 {
        let per_warp = self.prologue.len() as u64
            + self.iters as u64 * (self.body.len() as u64 + LOOP_CONTROL)
            + self.epilogue.len() as u64
            + 1;
        grid as u64 * block.div_ceil(32) as u64 * per_warp
    }

    pub fn assemble(&self, name: &str) -> Result<hopper_isa::Kernel, String> {
        hopper_isa::asm::assemble_named(&self.text(), name).map_err(|e| e.to_string())
    }
}

fn lines(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Integer ALU loop; `konst` only changes the kernel's digest and data.
pub fn alu(konst: u32, iters: u32) -> LoopKernel {
    LoopKernel {
        directives: vec![],
        prologue: vec![
            "mov %r1, %tid.x;".into(),
            format!("mov.s32 %r2, {konst};"),
            "mov.s32 %r3, 0;".into(),
        ],
        body: vec![
            "add.s32 %r2, %r2, %r1;".into(),
            format!("xor.b32 %r4, %r2, {konst};"),
            "mul.s32 %r5, %r4, 3;".into(),
        ],
        epilogue: vec![],
        counter: 3,
        iters,
    }
}

/// Grid-stride `float4` copy from `%r0` to `%r1`: `iters` × 16 bytes per
/// thread.
pub fn stream_copy(iters: u32) -> LoopKernel {
    LoopKernel {
        directives: vec![],
        prologue: lines(&[
            "mov %r2, %tid.x;",
            "mov %r3, %ctaid.x;",
            "mov %r4, %ntid.x;",
            "mad.s32 %r5, %r3, %r4, %r2;",
            "shl.s32 %r6, %r5, 4;",
            "add.s32 %r7, %r6, %r0;",
            "add.s32 %r8, %r6, %r1;",
            "mov %r9, %nctaid.x;",
            "mul.s32 %r10, %r9, %r4;",
            "shl.s32 %r10, %r10, 4;",
            "mov.s32 %r11, 0;",
        ]),
        body: lines(&[
            "ld.global.cg.v4 %r12, [%r7];",
            "st.global.v4 [%r8], %r12;",
            "add.s32 %r7, %r7, %r10;",
            "add.s32 %r8, %r8, %r10;",
        ]),
        epilogue: vec![],
        counter: 11,
        iters,
    }
}

/// Table IV's shared-memory pointer chase: the first warp builds a ring
/// in shared memory, then chases it `iters` times, so cycles per
/// iteration read the shared-memory load latency.  `salt` lands in an
/// unused register: it changes the digest, not the work.
pub fn smem_chase(salt: u32, iters: u32) -> LoopKernel {
    LoopKernel {
        directives: lines(&[".shared 4096;"]),
        prologue: vec![
            "mov %r1, %tid.x;".into(),
            "shl.s32 %r2, %r1, 3;".into(),
            "add.s32 %r3, %r2, 8;".into(),
            "and.s32 %r3, %r3, 4095;".into(),
            "st.shared.b64 [%r2], %r3;".into(),
            "bar.sync;".into(),
            format!("mov.s32 %r6, {salt};"),
            "mov.s64 %r4, 0;".into(),
            "mov.s32 %r5, 0;".into(),
        ],
        body: lines(&["ld.shared.b64 %r4, [%r4];"]),
        epilogue: vec![],
        counter: 5,
        iters,
    }
}

/// Global pointer chase from `%r0` for `steps` hops, storing the final
/// address to `%r1`.
pub fn chase_to_out(steps: u32) -> LoopKernel {
    LoopKernel {
        directives: vec![],
        prologue: lines(&["mov.s64 %r3, %r0;", "mov.s32 %r4, 0;"]),
        body: lines(&["ld.global.cg.b64 %r3, [%r3];"]),
        epilogue: lines(&["st.global.b64 [%r1], %r3;"]),
        counter: 4,
        iters: steps,
    }
}
