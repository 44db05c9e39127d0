//! Composable loop-nest trace generator.
//!
//! A [`LoopKernel`] describes one steady-state loop body: a set of array
//! walks (loads and stores), optional random/pointer-chasing references,
//! a compute mix (integer and floating point), and branch behaviour. The
//! [`KernelGen`] iterator expands it into an unbounded dynamic instruction
//! stream with stable PCs per static slot, synthetic register dependences
//! (loads feed compute feeds stores) and realistic branch patterns — the
//! inputs the out-of-order CPU model and the predictors need.
//!
//! Generation is a hot layer of its own: the organization matrix
//! generates each model's references once and replays them through
//! twelve caches, and generation was the largest single share of that
//! run's time. [`KernelGen`] therefore expands one loop iteration at a time
//! into a reused buffer and hands the ops out through a read cursor,
//! and its `next` is `#[inline]` so that consumers in other crates —
//! `mem_refs(..).collect()` above all — take ops straight from the
//! buffer instead of calling across the crate boundary per op.

use crate::record::{MemRef, OpClass, TraceOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A strided walk over an array, optionally column-structured.
///
/// Access `i` touches
/// `base + lap(i) * advance_bytes + (i mod wrap) * stride_elems * elem_size`
/// where `lap(i) = (i / wrap) mod laps`. With `wrap = rows`,
/// `stride_elems * elem_size = pitch` and `advance_bytes = elem_size`,
/// this is a column-major walk over a `rows × laps` 2D array — the access
/// pattern whose power-of-two pitch devastates conventionally-indexed
/// caches (tomcatv/swim/wave5 in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayWalk {
    /// Base byte address of the array.
    pub base: u64,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Per-access stride in elements.
    pub stride_elems: u64,
    /// Accesses before wrapping back (column length).
    pub wrap: u64,
    /// Bytes added to the base on each wrap (column advance).
    pub advance_bytes: u64,
    /// Number of wraps before the advance resets (column count).
    pub laps: u64,
    /// The walk is accessed only on iterations where
    /// `iteration % every == 0` (1 = every iteration). Lets a kernel mix
    /// in a low-intensity access stream without changing its PC layout.
    pub every: u64,
}

impl ArrayWalk {
    /// A plain sequential walk: `len_elems` elements of `elem_size` bytes,
    /// revisited cyclically.
    pub fn sequential(base: u64, len_elems: u64, elem_size: u64) -> Self {
        ArrayWalk {
            base,
            elem_size,
            stride_elems: 1,
            wrap: len_elems,
            advance_bytes: 0,
            laps: 1,
            every: 1,
        }
    }

    /// A strided walk: every `stride_elems`-th element of a `len_elems`
    /// window, cyclic.
    pub fn strided(base: u64, len_elems: u64, elem_size: u64, stride_elems: u64) -> Self {
        ArrayWalk {
            base,
            elem_size,
            stride_elems,
            wrap: len_elems,
            advance_bytes: 0,
            laps: 1,
            every: 1,
        }
    }

    /// A column-major walk over a `rows × cols` array with the given row
    /// pitch in bytes.
    pub fn column_walk(base: u64, rows: u64, cols: u64, pitch_bytes: u64, elem_size: u64) -> Self {
        ArrayWalk {
            base,
            elem_size: 1,
            stride_elems: pitch_bytes,
            wrap: rows,
            advance_bytes: elem_size,
            laps: cols,
            every: 1,
        }
    }

    /// Returns the same walk gated to fire every `every`-th iteration.
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }

    /// The address of the `i`-th access of this walk.
    pub fn addr(&self, i: u64) -> u64 {
        let k = i % self.wrap.max(1);
        let lap = (i / self.wrap.max(1)) % self.laps.max(1);
        self.base + lap * self.advance_bytes + k * self.stride_elems * self.elem_size
    }
}

/// A parameterised loop body.
#[derive(Debug, Clone)]
pub struct LoopKernel {
    /// Human-readable kernel name.
    pub name: String,
    /// Arrays read each iteration (one load per walk per iteration).
    pub loads: Vec<ArrayWalk>,
    /// Arrays written each iteration (one store per walk per iteration).
    pub stores: Vec<ArrayWalk>,
    /// Random loads emitted on iterations where
    /// `iteration % random_every == 0`.
    pub random_loads: u32,
    /// Period of the random-load burst (>= 1).
    pub random_every: u64,
    /// Byte span of the random-load region.
    pub random_footprint: u64,
    /// Base address of the random-load region.
    pub random_base: u64,
    /// Serialize random loads as a pointer chase (each one's address
    /// register depends on the previous one's result).
    pub chase: bool,
    /// Simple integer ops per iteration.
    pub int_ops: u32,
    /// FP adds per iteration.
    pub fp_adds: u32,
    /// FP multiplies per iteration.
    pub fp_muls: u32,
    /// One FP divide every this many iterations (0 = never).
    pub fp_div_every: u64,
    /// One integer multiply every this many iterations (0 = never).
    pub int_mul_every: u64,
    /// Probability that the data-dependent branch is taken (0 disables
    /// the branch entirely; values near 0.5 are hard to predict).
    pub data_branch_prob: f64,
    /// Alternate FP ops between chained and independent (models the
    /// higher ILP of codes like fpppp; `false` gives one serial chain).
    pub fp_independent: bool,
    /// Load destinations are FP registers (FP benchmark) or integer.
    pub fp_data: bool,
    /// Base code address (PCs of the loop body).
    pub code_base: u64,
}

impl LoopKernel {
    /// A minimal integer kernel template; customise fields as needed.
    pub fn template(name: &str) -> Self {
        LoopKernel {
            name: name.to_owned(),
            loads: Vec::new(),
            stores: Vec::new(),
            random_loads: 0,
            random_every: 1,
            random_footprint: 0,
            random_base: 0x4000_0000,
            chase: false,
            int_ops: 2,
            fp_adds: 0,
            fp_muls: 0,
            fp_div_every: 0,
            int_mul_every: 0,
            data_branch_prob: 0.0,
            fp_independent: false,
            fp_data: false,
            code_base: 0x0040_0000,
        }
    }

    /// Instantiates the generator with a deterministic seed.
    pub fn generator(&self, seed: u64) -> KernelGen {
        KernelGen::new(self.clone(), seed)
    }

    /// Static instructions per loop iteration (upper bound; divide/mul
    /// slots count even on iterations that skip them).
    pub fn ops_per_iteration(&self) -> usize {
        self.loads.len()
            + self.stores.len()
            + self.random_loads as usize
            + self.int_ops as usize
            + self.fp_adds as usize
            + self.fp_muls as usize
            + usize::from(self.fp_div_every > 0)
            + usize::from(self.int_mul_every > 0)
            + usize::from(self.data_branch_prob > 0.0)
            + 2 // induction update + loop-back branch
    }
}

/// Where one [`ArrayWalk`] stands in a [`KernelGen`]: the walk's
/// access `j = i / every` of loop iteration `i`, kept as counters so
/// that expanding an iteration divides nothing.
#[derive(Debug, Clone, Copy, Default)]
struct WalkCursor {
    /// `i mod every`: the walk fires when this is 0.
    rem: u64,
    /// `j mod wrap`: the position within the current lap.
    k: u64,
    /// `(j / wrap) mod laps`: the current lap.
    lap: u64,
}

impl WalkCursor {
    /// The address this iteration touches, or `None` when the walk
    /// skips it; either way the cursor moves to the next iteration.
    #[inline]
    fn next(&mut self, walk: &ArrayWalk) -> Option<u64> {
        let fires = self.rem == 0;
        self.rem += 1;
        if self.rem >= walk.every {
            self.rem = 0;
        }
        if !fires {
            return None;
        }
        let addr =
            walk.base + self.lap * walk.advance_bytes + self.k * walk.stride_elems * walk.elem_size;
        self.k += 1;
        if self.k >= walk.wrap {
            self.k = 0;
            self.lap += 1;
            if self.lap >= walk.laps {
                self.lap = 0;
            }
        }
        Some(addr)
    }
}

/// Iterator expanding a [`LoopKernel`] into dynamic instructions.
#[derive(Debug)]
pub struct KernelGen {
    kernel: LoopKernel,
    iter: u64,
    /// The ops of the loop iteration being handed out (reused across
    /// iterations).
    ops: Vec<TraceOp>,
    /// Index in `ops` of the next op to hand out.
    pos: usize,
    rng: StdRng,
    /// One cursor per load walk, then one per store walk.
    cursors: Vec<WalkCursor>,
    /// Destination registers of the current iteration's loads (reused
    /// across iterations).
    load_dsts: Vec<u8>,
}

/// Integer register pool for generated code (r0 is the zero register;
/// r1 is reserved as the induction variable).
const INT_POOL: std::ops::Range<u8> = 2..28;
/// FP register pool (architectural 32..=63).
const FP_POOL: std::ops::Range<u8> = 34..62;

impl KernelGen {
    /// Creates the generator.
    pub fn new(kernel: LoopKernel, seed: u64) -> Self {
        let walks = kernel.loads.len() + kernel.stores.len();
        KernelGen {
            kernel,
            iter: 0,
            // Grows to one iteration's ops on the first refill; see the
            // note on the `Iterator` impl.
            ops: Vec::new(),
            pos: 0,
            rng: StdRng::seed_from_u64(seed),
            cursors: vec![WalkCursor::default(); walks],
            load_dsts: Vec::new(),
        }
    }

    /// The kernel being expanded.
    pub fn kernel(&self) -> &LoopKernel {
        &self.kernel
    }

    /// Expands the next loop iteration into `ops` and rewinds the read
    /// cursor. An iteration always has at least its induction update and
    /// loop-back branch, so `ops` is never left empty.
    fn refill(&mut self) {
        let KernelGen {
            kernel: k,
            iter,
            ops,
            pos,
            rng,
            cursors,
            load_dsts,
        } = self;
        let i = *iter;
        let (load_cursors, store_cursors) = cursors.split_at_mut(k.loads.len());
        let int_reg = |slot: u64| {
            let span = u64::from(INT_POOL.end - INT_POOL.start);
            INT_POOL.start + ((i.wrapping_mul(7).wrapping_add(slot)) % span) as u8
        };
        let fp_reg = |slot: u64| {
            let span = u64::from(FP_POOL.end - FP_POOL.start);
            FP_POOL.start + ((i.wrapping_mul(5).wrapping_add(slot)) % span) as u8
        };
        let mut pc = k.code_base;
        let next_pc = |n: &mut u64| {
            let p = *n;
            *n += 4;
            p
        };
        ops.clear();
        *pos = 0;
        load_dsts.clear();
        let mut slot = 0u64;

        // Induction variable update.
        ops.push(TraceOp::compute(
            next_pc(&mut pc),
            OpClass::IntAlu,
            1,
            [Some(1), None],
        ));

        // Array loads.
        for (walk, cursor) in k.loads.iter().zip(load_cursors) {
            let Some(addr) = cursor.next(walk) else {
                pc += 4; // keep PCs stable for skipped slots
                slot += 1;
                continue;
            };
            let dst = if k.fp_data {
                fp_reg(slot)
            } else {
                int_reg(slot)
            };
            ops.push(TraceOp::load(next_pc(&mut pc), addr, dst, Some(1)));
            load_dsts.push(dst);
            slot += 1;
        }

        // Random / pointer-chase loads.
        if k.random_loads > 0 && i.is_multiple_of(k.random_every.max(1)) && k.random_footprint > 0 {
            let mut prev: Option<u8> = None;
            for _ in 0..k.random_loads {
                let off = rng.gen_range(0..k.random_footprint / 8) * 8;
                let dst = int_reg(slot);
                let base = if k.chase { prev.or(Some(1)) } else { Some(1) };
                ops.push(TraceOp::load(
                    next_pc(&mut pc),
                    k.random_base + off,
                    dst,
                    base,
                ));
                load_dsts.push(dst);
                prev = Some(dst);
                slot += 1;
            }
        } else {
            // Keep PCs stable across iterations: reserve the slots.
            pc += 4 * u64::from(k.random_loads);
        }

        // Integer compute, consuming load results where available.
        let mut last_int = 1u8;
        for n in 0..k.int_ops {
            let dst = int_reg(slot);
            let src1 = load_dsts
                .iter()
                .rev()
                .find(|&&r| r < 32)
                .copied()
                .unwrap_or(last_int);
            let src2 = if n % 2 == 0 { Some(last_int) } else { Some(1) };
            ops.push(TraceOp::compute(
                next_pc(&mut pc),
                OpClass::IntAlu,
                dst,
                [Some(src1), src2],
            ));
            last_int = dst;
            slot += 1;
        }
        if k.int_mul_every > 0 {
            if i.is_multiple_of(k.int_mul_every) {
                let dst = int_reg(slot);
                ops.push(TraceOp::compute(
                    next_pc(&mut pc),
                    OpClass::IntMul,
                    dst,
                    [Some(last_int), Some(1)],
                ));
                last_int = dst;
            } else {
                pc += 4;
            }
            slot += 1;
        }

        // FP compute: a dependency chain seeded by the FP loads.
        let mut last_fp: Option<u8> = load_dsts.iter().rev().find(|&&r| r >= 32).copied();
        for n in 0..(k.fp_adds + k.fp_muls) {
            let class = if n < k.fp_adds {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            };
            let dst = fp_reg(slot + 13);
            let src1 = if k.fp_independent && n % 2 == 1 {
                load_dsts.iter().find(|&&r| r >= 32).copied().unwrap_or(32)
            } else {
                last_fp.unwrap_or(33)
            };
            let src2 = load_dsts.iter().find(|&&r| r >= 32).copied().unwrap_or(32);
            ops.push(TraceOp::compute(
                next_pc(&mut pc),
                class,
                dst,
                [Some(src1), Some(src2)],
            ));
            last_fp = Some(dst);
            slot += 1;
        }
        if k.fp_div_every > 0 {
            if i.is_multiple_of(k.fp_div_every) {
                let dst = fp_reg(slot + 13);
                ops.push(TraceOp::compute(
                    next_pc(&mut pc),
                    OpClass::FpDiv,
                    dst,
                    [Some(last_fp.unwrap_or(33)), Some(32)],
                ));
                last_fp = Some(dst);
            } else {
                pc += 4;
            }
        }

        // Stores of computed results.
        for (walk, cursor) in k.stores.iter().zip(store_cursors) {
            let Some(addr) = cursor.next(walk) else {
                pc += 4;
                continue;
            };
            let src = if k.fp_data {
                last_fp.unwrap_or(33)
            } else {
                last_int
            };
            ops.push(TraceOp::store(next_pc(&mut pc), addr, src, Some(1)));
        }

        // Data-dependent branch (hard to predict when prob ≈ 0.5).
        if k.data_branch_prob > 0.0 {
            let taken = rng.gen_bool(k.data_branch_prob);
            let bpc = next_pc(&mut pc);
            ops.push(TraceOp::branch(bpc, taken, bpc + 16, Some(last_int)));
        }

        // Loop-back branch (taken; highly predictable).
        let bpc = next_pc(&mut pc);
        ops.push(TraceOp::branch(bpc, true, k.code_base, Some(1)));

        *iter += 1;
    }
}

// No `size_hint`, so `gen.take(n).collect()` grows its `Vec` by
// doubling, and `ops` starts empty. The sizes allocated here decide
// where glibc places the large trace buffers that callers free and
// collect again per model. Sizing both exactly made `cacbench`'s
// `table2-ipc` peak RSS read 5.8 or 8.1 MB from run to run instead of a
// steady 8.1, to save about 1 ms of generation in a 0.55 s grid pass.
impl Iterator for KernelGen {
    type Item = TraceOp;

    // Without `#[inline]` this non-generic method is not inlinable in
    // other crates, and every op would cross a call and come back
    // through memory.
    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        if self.pos == self.ops.len() {
            self.refill();
        }
        let op = self.ops.get(self.pos).copied();
        self.pos += 1;
        op
    }
}

/// Adapter extracting the memory references of an op stream.
pub fn mem_refs<I: Iterator<Item = TraceOp>>(ops: I) -> impl Iterator<Item = MemRef> {
    ops.filter_map(|op| op.mem_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_kernel() -> LoopKernel {
        let mut k = LoopKernel::template("demo");
        k.loads = vec![
            ArrayWalk::sequential(0x1_0000, 256, 8),
            ArrayWalk::strided(0x2_0000, 128, 8, 4),
        ];
        k.stores = vec![ArrayWalk::sequential(0x3_0000, 256, 8)];
        k.fp_adds = 2;
        k.fp_muls = 1;
        k.fp_data = true;
        k.int_ops = 2;
        k.data_branch_prob = 0.3;
        k
    }

    #[test]
    fn array_walk_addressing() {
        let w = ArrayWalk::sequential(100, 4, 8);
        assert_eq!(
            (0..6).map(|i| w.addr(i)).collect::<Vec<_>>(),
            vec![100, 108, 116, 124, 100, 108]
        );
        let s = ArrayWalk::strided(0, 4, 8, 16);
        assert_eq!(s.addr(1), 128);
        // Column walk over a 3-row x 2-col array with 4KB pitch.
        let c = ArrayWalk::column_walk(0, 3, 2, 4096, 8);
        assert_eq!(c.addr(0), 0);
        assert_eq!(c.addr(1), 4096);
        assert_eq!(c.addr(2), 8192);
        assert_eq!(c.addr(3), 8); // next column
        assert_eq!(c.addr(6), 0); // wrapped around both
    }

    #[test]
    fn generator_is_deterministic() {
        let k = demo_kernel();
        let a: Vec<_> = k.generator(7).take(500).collect();
        let b: Vec<_> = k.generator(7).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<_> = k.generator(8).take(500).collect();
        assert_ne!(a, c); // branch pattern differs
    }

    #[test]
    fn pcs_are_stable_across_iterations() {
        let k = demo_kernel();
        let ops: Vec<_> = k.generator(1).take(1000).collect();
        use std::collections::HashMap;
        let mut class_by_pc: HashMap<u64, OpClass> = HashMap::new();
        for op in &ops {
            let prev = class_by_pc.insert(op.pc, op.class);
            if let Some(prev) = prev {
                assert_eq!(prev, op.class, "pc {:#x} changed class", op.pc);
            }
        }
    }

    #[test]
    fn loads_match_walk_addresses() {
        let k = demo_kernel();
        let ops: Vec<_> = k.generator(1).take(200).collect();
        let loads: Vec<&TraceOp> = ops.iter().filter(|o| o.is_load()).collect();
        // First two loads of iteration 0 follow the walks.
        assert_eq!(loads[0].addr, Some(k.loads[0].addr(0)));
        assert_eq!(loads[1].addr, Some(k.loads[1].addr(0)));
    }

    #[test]
    fn loop_branch_closes_every_iteration() {
        let k = demo_kernel();
        let ops: Vec<_> = k.generator(1).take(300).collect();
        let backs: Vec<&TraceOp> = ops
            .iter()
            .filter(|o| o.is_branch() && o.target == k.code_base)
            .collect();
        assert!(backs.len() >= 2);
        assert!(backs.iter().all(|b| b.taken));
    }

    #[test]
    fn fp_chain_has_dependences() {
        let k = demo_kernel();
        // Inspect only the first iteration's FP ops (3 of them).
        let ops: Vec<_> = k.generator(1).take(k.ops_per_iteration()).collect();
        let fp_ops: Vec<&TraceOp> = ops.iter().filter(|o| o.class.is_fp()).collect();
        assert_eq!(fp_ops.len(), 3);
        // The chain: op n+1 reads op n's destination.
        assert_eq!(fp_ops[1].srcs[0], fp_ops[0].dst);
        assert_eq!(fp_ops[2].srcs[0], fp_ops[1].dst);
    }

    #[test]
    fn chase_serializes_random_loads() {
        let mut k = LoopKernel::template("chase");
        k.random_loads = 3;
        k.random_footprint = 1 << 16;
        k.chase = true;
        let ops: Vec<_> = k.generator(1).take(20).collect();
        let loads: Vec<&TraceOp> = ops.iter().filter(|o| o.is_load()).collect();
        assert_eq!(loads[1].srcs[0], loads[0].dst);
        assert_eq!(loads[2].srcs[0], loads[1].dst);
    }

    #[test]
    fn mem_refs_extracts_loads_and_stores() {
        let k = demo_kernel();
        let n_ops = 500;
        let refs: Vec<_> = mem_refs(k.generator(1).take(n_ops)).collect();
        let ops: Vec<_> = k.generator(1).take(n_ops).collect();
        let expected = ops.iter().filter(|o| o.class.is_memory()).count();
        assert_eq!(refs.len(), expected);
        assert!(refs.iter().any(|r| r.is_write));
    }

    #[test]
    fn ops_per_iteration_matches_stream() {
        let mut k = demo_kernel();
        k.data_branch_prob = 0.5; // branch always present
        k.random_loads = 0;
        let per_iter = k.ops_per_iteration();
        let ops: Vec<_> = k.generator(1).take(3 * per_iter).collect();
        // Count loop-back branches: one per iteration.
        let backs = ops
            .iter()
            .filter(|o| o.is_branch() && o.target == k.code_base)
            .count();
        assert_eq!(backs, 3);
    }

    #[test]
    fn generation_in_pieces_equals_one_pass() {
        // Stopping and resuming the iterator at any op, mid-iteration
        // included, must not change the stream.
        const N: usize = 20_000;
        let kernels = crate::spec::SpecBenchmark::all()
            .into_iter()
            .map(|b| b.kernel())
            .chain([demo_kernel()]);
        for k in kernels {
            let whole: Vec<_> = k.generator(3).take(N).collect();
            for piece in [1, 7, 23, 1000] {
                let mut gen = k.generator(3);
                let mut pieces = Vec::with_capacity(N);
                while pieces.len() < N {
                    let want = piece.min(N - pieces.len());
                    pieces.extend(gen.by_ref().take(want));
                }
                assert!(pieces == whole, "{}: pieces of {piece} differ", k.name);
            }
        }
    }

    #[test]
    fn random_every_gates_bursts() {
        let mut k = LoopKernel::template("bursty");
        k.random_loads = 2;
        k.random_every = 4;
        k.random_footprint = 1 << 12;
        let ops: Vec<_> = k.generator(3).take(200).collect();
        let loads = ops.iter().filter(|o| o.is_load()).count();
        // 2 loads every 4th iteration; ~each iteration has 4 ops
        // (induction + branch + maybe ints). Just check sparsity.
        assert!(loads > 0);
        assert!(loads < ops.len() / 4);
    }
}
