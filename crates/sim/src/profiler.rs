//! The profiling functional simulator.
//!
//! Executes a compiled [`CodeImage`] once, collecting the
//! microarchitecture-independent [`ExecProfile`]: block execution counts,
//! branch statistics, and exact LRU reuse-distance histograms for the
//! instruction stream, the data stream (at every candidate block size) and
//! the branch-PC stream. This is the `portopt` equivalent of running the
//! program once on real hardware and reading the counters afterwards.

use crate::flatsd::FlatStackDistance;
use crate::profile::{ExecProfile, BLOCK_SIZES};
use portopt_ir::interp::{ExecError, ExecLimits, Memory};
use portopt_ir::{FuncId, Inst, Module, Operand};
use portopt_passes::{CodeImage, TermKind};
use portopt_uarch::{BranchStats, ReuseHistogram};

/// Runs `img` (produced from `module`) and collects its profile.
///
/// `module` supplies global initialisers; `args` are passed to the entry
/// function.
///
/// # Errors
/// Returns the interpreter's [`ExecError`] on runaway execution, stack
/// overflow or wild addresses.
pub fn profile(
    img: &CodeImage,
    module: &Module,
    args: &[i64],
    limits: ExecLimits,
) -> Result<ExecProfile, ExecError> {
    let mut st = ProfState::new(img, module, limits);
    let ret = st.call(img.entry, args, Module::STACK_BASE as i64, 0)?;

    let mut prof = st.prof;
    prof.ret = ret.unwrap_or(0);
    prof.mem_hash = st.mem.hash_globals(module);
    Ok(prof)
}

struct ProfState<'a> {
    img: &'a CodeImage,
    mem: Memory,
    fuel: u64,
    max_depth: usize,
    prof: ExecProfile,
    /// Stack-distance trackers for the data stream, per block size.
    dsd: Vec<FlatStackDistance>,
    /// Stack-distance trackers for the instruction stream, per block size.
    isd: Vec<FlatStackDistance>,
    /// Branch-PC stream tracker.
    bsd: FlatStackDistance,
    /// Previous direction per branch site (for transition counts).
    prev_dir: Vec<Option<bool>>,
    /// Global block-index offset per function.
    block_offset: Vec<usize>,
}

impl<'a> ProfState<'a> {
    fn new(img: &'a CodeImage, module: &Module, limits: ExecLimits) -> Self {
        let code_end = (portopt_passes::CODE_BASE + img.code_bytes) as usize;
        let mut block_offset = Vec::with_capacity(img.funcs.len());
        let mut total_blocks = 0usize;
        for f in &img.funcs {
            block_offset.push(total_blocks);
            total_blocks += f.func.blocks.len();
        }
        let mut prof = ExecProfile {
            block_counts: img
                .funcs
                .iter()
                .map(|f| vec![0u64; f.func.blocks.len()])
                .collect(),
            branch_stats: vec![BranchStats::default(); total_blocks],
            icache_reuse: BLOCK_SIZES.iter().map(|_| ReuseHistogram::new()).collect(),
            dcache_reuse: BLOCK_SIZES.iter().map(|_| ReuseHistogram::new()).collect(),
            ..ExecProfile::default()
        };
        prof.branch_pc_reuse = ReuseHistogram::new();
        ProfState {
            img,
            mem: Memory::for_module(module),
            fuel: limits.fuel,
            max_depth: limits.max_depth,
            prof,
            dsd: BLOCK_SIZES
                .iter()
                .map(|&bs| FlatStackDistance::new((Module::STACK_BASE / bs) as usize + 1))
                .collect(),
            isd: BLOCK_SIZES
                .iter()
                .map(|&bs| FlatStackDistance::new(code_end / bs as usize + 2))
                .collect(),
            bsd: FlatStackDistance::new(code_end / 4 + 2),
            prev_dir: vec![None; total_blocks],
            block_offset,
        }
    }

    #[inline]
    fn data_access(&mut self, addr: i64) {
        self.prof.dcache_word_accesses += 1;
        for (k, &bs) in BLOCK_SIZES.iter().enumerate() {
            let d = self.dsd[k].access((addr as u64 / bs as u64) as usize);
            self.prof.dcache_reuse[k].record(d);
        }
    }

    #[inline]
    fn fetch_range(&mut self, start: u32, end: u32) {
        for (k, &bs) in BLOCK_SIZES.iter().enumerate() {
            let first = start / bs;
            let last = (end - 1) / bs;
            for line in first..=last {
                let d = self.isd[k].access(line as usize);
                self.prof.icache_reuse[k].record(d);
            }
        }
    }

    #[inline]
    fn branch_pc(&mut self, pc: u32) {
        let d = self.bsd.access((pc / 4) as usize);
        self.prof.branch_pc_reuse.record(d);
    }

    #[inline]
    fn load(&mut self, addr: i64) -> Result<i64, ExecError> {
        if !self.mem.contains(addr) {
            // Non-trapping wild load (speculative path): reads 0. The
            // access still occupies the memory pipe but touches no
            // modelled line.
            self.prof.dcache_word_accesses += 1;
            return Ok(0);
        }
        self.data_access(addr);
        self.mem.load(addr)
    }

    #[inline]
    fn store(&mut self, addr: i64, val: i64) -> Result<(), ExecError> {
        self.mem.store(addr, val)?;
        self.data_access(addr);
        Ok(())
    }

    fn call(
        &mut self,
        fid: FuncId,
        args: &[i64],
        sp: i64,
        depth: usize,
    ) -> Result<Option<i64>, ExecError> {
        if depth >= self.max_depth {
            return Err(ExecError::StackOverflow);
        }
        let mf = &self.img.funcs[fid.index()];
        let f = &mf.func;
        let frame_bytes = (f.frame_slots as i64) * 4;
        let fp = sp - frame_bytes;
        if fp < Module::DATA_BASE as i64 {
            return Err(ExecError::StackOverflow);
        }
        let mut regs = vec![0i64; f.vreg_count as usize];
        for (p, v) in f.params.iter().zip(args) {
            regs[p.index()] = *v;
        }

        let mut bi = f.entry();
        let mut by_fallthrough = false;
        loop {
            let gbi = self.block_offset[fid.index()] + bi.index();
            self.prof.block_counts[fid.index()][bi.index()] += 1;
            let lay = mf.layout[bi.index()];
            // Instruction fetch: the block's bytes, plus its alignment pad
            // when entered by fall-through (sequential fetch rolls through
            // the padding nops).
            if lay.bytes > 0 || (by_fallthrough && lay.pad > 0) {
                let start = if by_fallthrough {
                    lay.addr - lay.pad
                } else {
                    lay.addr
                };
                let end = (lay.addr + lay.bytes).max(start + 1);
                self.fetch_range(start, end);
            }
            if by_fallthrough {
                self.prof.pad_fetches += (lay.pad / 4) as u64;
            }

            let block = &f.blocks[bi.index()];
            let body_len = block.body().len();
            if self.fuel < (body_len as u64 + 2) {
                return Err(ExecError::FuelExhausted);
            }
            self.fuel -= body_len as u64 + 1;
            self.prof.dyn_insts += body_len as u64;

            let val = |o: &Operand, regs: &[i64]| -> i64 {
                match o {
                    Operand::Reg(r) => regs[r.index()],
                    Operand::Imm(v) => *v,
                }
            };

            // Execute the body.
            for inst in block.body() {
                let mut reads = 0u64;
                inst.for_each_use(|_| reads += 1);
                self.prof.ops.reg_reads += reads;
                if inst.def().is_some() {
                    self.prof.ops.reg_writes += 1;
                }
                match inst {
                    Inst::Bin { op, dst, a, b } => {
                        if op.is_long_latency() {
                            self.prof.ops.div += 1;
                        } else if op.uses_mac() {
                            self.prof.ops.mac += 1;
                        } else if op.uses_shifter() {
                            self.prof.ops.shift += 1;
                        } else {
                            self.prof.ops.alu += 1;
                        }
                        regs[dst.index()] = op.eval(val(a, &regs), val(b, &regs));
                    }
                    Inst::Cmp { pred, dst, a, b } => {
                        self.prof.ops.alu += 1;
                        regs[dst.index()] = pred.eval(val(a, &regs), val(b, &regs));
                    }
                    Inst::Copy { dst, src } => {
                        self.prof.ops.alu += 1;
                        regs[dst.index()] = val(src, &regs);
                    }
                    Inst::Load { dst, addr, offset } => {
                        self.prof.ops.loads += 1;
                        regs[dst.index()] = self.load(regs[addr.index()].wrapping_add(*offset))?;
                    }
                    Inst::Store { src, addr, offset } => {
                        self.prof.ops.stores += 1;
                        let v = val(src, &regs);
                        self.store(regs[addr.index()].wrapping_add(*offset), v)?;
                    }
                    Inst::FrameLoad { dst, slot } => {
                        self.prof.ops.loads += 1;
                        regs[dst.index()] = self.load(fp + (*slot as i64) * 4)?;
                    }
                    Inst::FrameStore { src, slot } => {
                        self.prof.ops.stores += 1;
                        let v = val(src, &regs);
                        self.store(fp + (*slot as i64) * 4, v)?;
                    }
                    Inst::Call {
                        func,
                        args: cargs,
                        dst,
                    } => {
                        self.prof.ops.calls += 1;
                        self.prof.taken_transfers += 1;
                        // The call instruction's PC: position within the
                        // block is approximated by the block start (calls
                        // occupy BTB entries; set conflicts are what matter).
                        self.branch_pc(lay.addr);
                        let argv: Vec<i64> = cargs.iter().map(|a| val(a, &regs)).collect();
                        let r = self.call(*func, &argv, fp, depth + 1)?;
                        if let Some(d) = dst {
                            regs[d.index()] = r.unwrap_or(0);
                        }
                    }
                    Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } => {
                        unreachable!("terminator in body")
                    }
                }
            }

            // Terminator.
            let term_pc = lay.addr + lay.bytes.saturating_sub(4);
            match block.insts.last() {
                Some(Inst::Ret { val: v }) => {
                    self.prof.dyn_insts += 1;
                    self.prof.ops.rets += 1;
                    self.prof.taken_transfers += 1;
                    self.branch_pc(term_pc);
                    let out = v.as_ref().map(|o| val(o, &regs));
                    // Return-value register reads count too.
                    if v.as_ref().and_then(|o| o.as_reg()).is_some() {
                        self.prof.ops.reg_reads += 1;
                    }
                    return Ok(out);
                }
                Some(Inst::Br { target }) => {
                    match lay.term {
                        TermKind::Fall => {
                            by_fallthrough = true;
                        }
                        _ => {
                            self.prof.dyn_insts += 1;
                            self.prof.ops.jumps += 1;
                            self.prof.taken_transfers += 1;
                            self.branch_pc(term_pc);
                            by_fallthrough = false;
                        }
                    }
                    bi = *target;
                }
                Some(Inst::CondBr { cond, then_, else_ }) => {
                    self.prof.ops.reg_reads += 1;
                    let c = regs[cond.index()] != 0;
                    let target = if c { *then_ } else { *else_ };
                    // The conditional branch instruction itself.
                    let cond_pc = if lay.term == TermKind::CondTwoJumps {
                        lay.addr + lay.bytes - 8
                    } else {
                        term_pc
                    };
                    let taken = match lay.term {
                        TermKind::CondFall => target == *then_,
                        TermKind::CondFlip => target == *else_,
                        TermKind::CondTwoJumps => target == *then_,
                        _ => unreachable!("condbr lowered to non-cond term"),
                    };
                    self.prof.dyn_insts += 1;
                    self.prof.ops.cond_branches += 1;
                    self.branch_pc(cond_pc);
                    let prev = self.prev_dir[gbi];
                    self.prof.branch_stats[gbi].record(taken, prev);
                    self.prev_dir[gbi] = Some(taken);
                    if taken {
                        self.prof.taken_transfers += 1;
                        by_fallthrough = false;
                    } else if lay.term == TermKind::CondTwoJumps {
                        // Fell past the conditional into the unconditional
                        // jump to `else_`.
                        self.prof.dyn_insts += 1;
                        self.prof.ops.jumps += 1;
                        self.prof.taken_transfers += 1;
                        self.branch_pc(term_pc);
                        by_fallthrough = false;
                    } else {
                        by_fallthrough = true;
                    }
                    bi = target;
                }
                _ => return Err(ExecError::FellThrough),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_ir::interp::run_module;
    use portopt_ir::{FuncBuilder, ModuleBuilder};
    use portopt_passes::{compile, OptConfig};

    fn walker(n_words: u32, reps: i64) -> Module {
        let mut mb = ModuleBuilder::new("walker");
        let (_, base) = mb.global("buf", n_words);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, reps, 1, |b, _r| {
            b.counted_loop(0, n_words as i64, 1, |b, i| {
                let off = b.shl(i, 2);
                let a = b.add(p, off);
                let v = b.load(a, 0);
                let w = b.add(v, 1);
                b.store(w, a, 0);
                let t = b.add(acc, w);
                b.assign(acc, t);
            });
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn profile_matches_reference_semantics() {
        let m = walker(64, 3);
        let reference = run_module(&m, &[]).unwrap();
        let img = compile(&m, &OptConfig::o0());
        let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
        assert_eq!(p.ret, reference.ret);
        assert_eq!(p.mem_hash, reference.mem_hash);
    }

    #[test]
    fn counts_are_consistent() {
        let m = walker(64, 3);
        let img = compile(&m, &OptConfig::o0());
        let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
        // 64 words touched 3 times: 2*64*3 word accesses (load+store).
        assert_eq!(p.dcache_word_accesses, 2 * 64 * 3);
        assert_eq!(p.ops.loads, 64 * 3);
        assert_eq!(p.ops.stores, 64 * 3);
        // Branch sites: inner and outer loop headers execute.
        let hot: Vec<&BranchStats> = p.branch_stats.iter().filter(|s| s.execs > 0).collect();
        assert!(hot.len() >= 2);
        // The inner loop header runs (64+1)*3 times. Its machine branch is
        // lowered as CondFlip (body is the fall-through), so it is *taken*
        // only on the 3 loop exits — layout determines taken-ness.
        let inner = hot.iter().max_by_key(|s| s.execs).unwrap();
        assert_eq!(inner.execs, 65 * 3);
        assert_eq!(inner.taken, 3);
        assert!(inner.transitions <= 2 * 3 + 1);
        // Block counts sum: entry executed once.
        assert_eq!(p.block_counts[0][0], 1);
    }

    #[test]
    fn dcache_reuse_sees_working_set() {
        // 4KB working set = 1024 words; with 8-byte blocks = 512 blocks.
        let m = walker(1024, 4);
        let img = compile(&m, &OptConfig::o0());
        let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
        // A cache with plenty of space (4096 sets x 4 ways x 8B) holds it.
        let big = p.dcache_misses(4096, 4, 8);
        // Cold misses only: 512 blocks.
        assert!(big < 600.0, "big: {big}");
        // A 32-set x 4-way x 8B cache (1KB) thrashes on a 8KB working set.
        let small = p.dcache_misses(32, 4, 8);
        assert!(small > 2000.0, "small: {small}");
        // Bigger blocks mean fewer accesses.
        assert!(p.icache_accesses(64) < p.icache_accesses(8));
    }

    #[test]
    fn fuel_limit_enforced() {
        let m = walker(64, 1_000_000);
        let img = compile(&m, &OptConfig::o0());
        let e = profile(
            &img,
            &m,
            &[],
            ExecLimits {
                fuel: 10_000,
                max_depth: 16,
            },
        )
        .unwrap_err();
        assert_eq!(e, ExecError::FuelExhausted);
    }

    #[test]
    fn unrolling_cuts_dynamic_branches() {
        let m = walker(256, 4);
        let img0 = compile(&m, &OptConfig::o0());
        let unrolled = OptConfig {
            unroll_loops: true,
            ..OptConfig::o1()
        };
        let img_u = compile(&m, &unrolled);
        let p0 = profile(&img0, &m, &[], ExecLimits::default()).unwrap();
        let pu = profile(&img_u, &m, &[], ExecLimits::default()).unwrap();
        assert_eq!(p0.ret, pu.ret);
        assert!(pu.dyn_insts < p0.dyn_insts);
        assert!(pu.ops.cond_branches < p0.ops.cond_branches);
    }

    #[test]
    fn o3_preserves_semantics_with_different_cost() {
        // O3 is NOT uniformly better (the paper's premise): it must agree
        // semantically; its instruction count may go either way.
        let m = walker(256, 4);
        let img0 = compile(&m, &OptConfig::o0());
        let img3 = compile(&m, &OptConfig::o3());
        let p0 = profile(&img0, &m, &[], ExecLimits::default()).unwrap();
        let p3 = profile(&img3, &m, &[], ExecLimits::default()).unwrap();
        assert_eq!(p0.ret, p3.ret);
        assert_eq!(p0.mem_hash, p3.mem_hash);
        assert!(p3.dyn_insts > 0);
    }
}
