//! The out-of-order pipeline: dispatch → issue → execute → commit.
//!
//! The model is a scoreboard over a reorder buffer, stepped cycle by
//! cycle but only through cycles in which something can happen:
//!
//! * **Dispatch** (4/cycle): takes instructions from the trace while ROB
//!   space and physical registers allow. Branches are predicted here; a
//!   misprediction stalls dispatch until the branch resolves (trace-driven
//!   recovery model). An op that finds its register pool empty waits in a
//!   one-slot fetch buffer, and dispatch stalls for the cycle.
//! * **Issue** (4/cycle, oldest-first): an instruction issues when its
//!   source producers have completed and its functional unit (Table 1)
//!   and, for memory ops, an effective-address unit and memory port are
//!   free. Loads access the lockup-free data cache; stores compute their
//!   address and expose it to the ARB check.
//! * **Memory dependence speculation**: loads issue past stores with
//!   unknown addresses. When a store's address resolves and a younger
//!   load to the same word has already issued, the load is replayed
//!   (completion pushed past the store) and counted as a violation.
//!   Store-buffer forwarding satisfies loads whose producing store is
//!   already resolved.
//! * **Commit** (4/cycle, in order): stores write through to the cache at
//!   commit, as §3.4 prescribes.
//!
//! # Scheduling
//!
//! The ROB is a ring indexed by dynamic instruction number, with one
//! plain array per field. Three structures keep each cycle's work
//! proportional to what can change in it:
//!
//! * **The waiting set** lists the ops that have not issued, oldest
//!   first. Issue visits only these, never an op that already issued.
//! * **Ready cycles.** Once all of a waiting op's producers have issued,
//!   the op caches its ready cycle: the latest of their completions.
//!   Issue checks that cycle before it looks at a functional unit or
//!   port. A completion only moves when an ARB replay pushes a load
//!   back, and every replay drops all cached ready cycles.
//! * **In-flight stores** sit in their own age-ordered list, which is
//!   all that store-to-load forwarding searches.
//!
//! A cycle is *dead* when it commits nothing, issues nothing, dispatches
//! nothing and presents no load to the data cache. Nothing in the
//! machine changes after a dead cycle until the earliest of: the ROB
//! head's completion, a waiting op's ready cycle, a functional or
//! effective-address unit's free time, or the end of a misprediction
//! stall. The loop jumps straight there and charges the skipped cycles
//! to the stall counter the dead cycle charged. A load refused for want
//! of an MSHR makes its cycle live: the retry touches the cache
//! statistics, the address predictor and the TLB, so it runs every
//! cycle and is never skipped.

use crate::bpred::BranchPredictor;
use crate::config::CpuConfig;
use crate::dcache::{DataCache, LoadResponse};
use crate::stats::CpuStats;
use cac_core::Error;
use cac_trace::record::{OpClass, TraceOp};
use std::collections::VecDeque;

/// The completion of an op that has not issued, and the ready cycle of
/// an op whose producers have not all issued: "not known yet".
const PENDING: u64 = u64::MAX;

/// The producer of a source operand with no in-flight writer.
const NO_PRODUCER: u64 = u64::MAX;

/// ROB slots allocated up front; a larger ROB grows on demand.
const INITIAL_ROB_SLOTS: usize = 4096;

/// The reorder buffer: a ring indexed by dynamic instruction number,
/// one plain array per field.
#[derive(Debug)]
struct Rob {
    mask: u64,
    class: Vec<OpClass>,
    pc: Vec<u64>,
    addr: Vec<u64>,
    dst: Vec<Option<u8>>,
    taken: Vec<bool>,
    /// Dynamic indices of the in-flight producers of each source operand.
    producers: Vec<[u64; 2]>,
    /// Cycle the result is available; [`PENDING`] until the op issues.
    completion: Vec<u64>,
    mispredicted: Vec<bool>,
    forwarded: Vec<bool>,
}

impl Rob {
    fn with_slots(slots: usize) -> Self {
        let slots = slots.next_power_of_two();
        Rob {
            mask: slots as u64 - 1,
            class: vec![OpClass::IntAlu; slots],
            pc: vec![0; slots],
            addr: vec![0; slots],
            dst: vec![None; slots],
            taken: vec![false; slots],
            producers: vec![[NO_PRODUCER; 2]; slots],
            completion: vec![PENDING; slots],
            mispredicted: vec![false; slots],
            forwarded: vec![false; slots],
        }
    }

    fn slots(&self) -> usize {
        self.mask as usize + 1
    }

    /// The slot of dynamic instruction `idx`.
    #[inline]
    fn at(&self, idx: u64) -> usize {
        (idx & self.mask) as usize
    }

    /// Doubles the ring, keeping the live ops `head..next` at their
    /// dynamic indices.
    fn grow(&mut self, head: u64, next: u64) {
        fn regrow<T: Copy>(
            v: &mut Vec<T>,
            old_mask: u64,
            new_mask: u64,
            live: std::ops::Range<u64>,
        ) {
            let mut grown = vec![v[0]; new_mask as usize + 1];
            for idx in live {
                grown[(idx & new_mask) as usize] = v[(idx & old_mask) as usize];
            }
            *v = grown;
        }
        let (old, new) = (self.mask, self.mask * 2 + 1);
        regrow(&mut self.class, old, new, head..next);
        regrow(&mut self.pc, old, new, head..next);
        regrow(&mut self.addr, old, new, head..next);
        regrow(&mut self.dst, old, new, head..next);
        regrow(&mut self.taken, old, new, head..next);
        regrow(&mut self.producers, old, new, head..next);
        regrow(&mut self.completion, old, new, head..next);
        regrow(&mut self.mispredicted, old, new, head..next);
        regrow(&mut self.forwarded, old, new, head..next);
        self.mask = new;
    }
}

/// What dispatch did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    /// At least one op entered the ROB.
    Progress,
    /// The trace ran out.
    TraceEnd,
    /// Nothing entered: fetch waits on a mispredicted branch. The cycle
    /// was charged to `fetch_stall_cycles`.
    FetchStall,
    /// Nothing entered: the ROB is full. The cycle was charged to
    /// `rob_stall_cycles`.
    RobStall,
    /// Nothing entered and nothing was charged: the trace has ended, or
    /// the buffered op waits for a physical register.
    Idle,
}

impl Front {
    /// `self` if nothing was dispatched this cycle, else `Progress`.
    fn after(self, dispatched: u32) -> Front {
        if dispatched == 0 {
            self
        } else {
            Front::Progress
        }
    }
}

/// What happened to a ready op offered to its functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offer {
    Issued,
    /// Its unit, an EA unit or a memory port is taken this cycle.
    Busy,
    /// A load the data cache refused (every MSHR busy).
    Blocked,
}

/// Claims a functional unit free at `fu` for `busy` cycles; returns the
/// op's completion, or `None` if the unit is still busy.
fn claim(fu: &mut u64, now: u64, busy: u64, latency: u64) -> Option<u64> {
    if *fu > now {
        return None;
    }
    *fu = now + busy;
    Some(now + latency)
}

/// The processor model. Create with a [`CpuConfig`], drive with
/// [`Processor::run`].
#[derive(Debug)]
pub struct Processor {
    config: CpuConfig,
    bpred: BranchPredictor,
    dcache: DataCache,
    rob: Rob,
    /// Ops not yet issued, oldest first, each with its cached ready
    /// cycle ([`PENDING`] until every producer has issued).
    waiting: Vec<(u64, u64)>,
    /// In-flight stores, oldest first.
    stores: VecDeque<u64>,
    /// An op taken from the trace that found no free physical register.
    fetch_buffer: Option<TraceOp>,
    head_idx: u64,
    next_idx: u64,
    /// Latest in-flight writer of each architectural register.
    reg_producer: [u64; 64],
    cycle: u64,
    /// Cycle at which dispatch may resume after a misprediction
    /// (`u64::MAX` while the offending branch has not issued yet).
    fetch_resume: u64,
    pending_branch: Option<u64>,
    fu_simple_int: u64,
    fu_complex_int: u64,
    fu_ea: [u64; 2],
    fu_fp_add: u64,
    fu_fp_mul: u64,
    fu_fp_div: u64,
    free_int_regs: u32,
    free_fp_regs: u32,
    stats: CpuStats,
}

impl Processor {
    /// Builds the processor.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfRange`] if a width, the ROB, the memory ports or
    /// the MSHRs are zero, or a physical register file is smaller than
    /// the 32-entry architectural file; cache and placement validation
    /// errors otherwise.
    pub fn new(config: CpuConfig) -> Result<Self, Error> {
        for (what, v) in [
            ("fetch width", u64::from(config.fetch_width)),
            ("issue width", u64::from(config.issue_width)),
            ("commit width", u64::from(config.commit_width)),
            ("reorder-buffer entries", config.rob_entries as u64),
            ("memory ports", u64::from(config.mem_ports)),
            ("MSHRs", config.mshrs as u64),
        ] {
            if v == 0 {
                return Err(Error::OutOfRange {
                    what,
                    value: v,
                    constraint: ">= 1",
                });
            }
        }
        for (what, v) in [
            ("int physical registers", config.int_phys_regs),
            ("fp physical registers", config.fp_phys_regs),
        ] {
            if v < 32 {
                return Err(Error::OutOfRange {
                    what,
                    value: u64::from(v),
                    constraint: ">= 32 (architectural state)",
                });
            }
        }
        let dcache = DataCache::new(&config)?;
        let bpred = BranchPredictor::new(config.bht_entries);
        let free_int_regs = config.int_phys_regs - 32;
        let free_fp_regs = config.fp_phys_regs - 32;
        let slots = config.rob_entries.min(INITIAL_ROB_SLOTS);
        Ok(Processor {
            config,
            bpred,
            dcache,
            rob: Rob::with_slots(slots),
            waiting: Vec::with_capacity(slots),
            stores: VecDeque::with_capacity(slots),
            fetch_buffer: None,
            head_idx: 0,
            next_idx: 0,
            reg_producer: [NO_PRODUCER; 64],
            cycle: 0,
            fetch_resume: 0,
            pending_branch: None,
            fu_simple_int: 0,
            fu_complex_int: 0,
            fu_ea: [0; 2],
            fu_fp_add: 0,
            fu_fp_mul: 0,
            fu_fp_div: 0,
            free_int_regs,
            free_fp_regs,
            stats: CpuStats::default(),
        })
    }

    /// Runs the pipeline over `trace` until at least `max_instructions`
    /// commit (or the trace ends). Because commit retires up to
    /// `commit_width` instructions per cycle, the final count may exceed
    /// the target by up to `commit_width - 1`. Returns the accumulated
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to make forward progress (an internal
    /// invariant violation), after a generous cycle bound.
    pub fn run<I: Iterator<Item = TraceOp>>(
        &mut self,
        mut trace: I,
        max_instructions: u64,
    ) -> CpuStats {
        let target = self.stats.instructions + max_instructions;
        let cycle_bound = self.cycle + 400 * max_instructions + 100_000;
        let mut trace_done = false;
        while self.stats.instructions < target {
            let committed = self.commit();
            let wake = self.issue();
            let front = if trace_done {
                Front::Idle
            } else {
                self.dispatch(&mut trace)
            };
            trace_done = trace_done || front == Front::TraceEnd;
            if trace_done && self.head_idx == self.next_idx {
                break;
            }
            let dead =
                !committed && matches!(front, Front::FetchStall | Front::RobStall | Front::Idle);
            self.cycle = match wake {
                Some(wake) if dead => self.skip_dead_cycles(wake, front),
                _ => self.cycle + 1,
            };
            assert!(
                self.cycle < cycle_bound,
                "pipeline stopped making progress at cycle {}",
                self.cycle
            );
        }
        self.snapshot_stats();
        self.stats
    }

    /// After a dead cycle, returns the first cycle in which something
    /// can happen, charging the cycles in between to the stall counter
    /// the dead cycle charged. `wake` is the earliest future ready cycle
    /// of a waiting op.
    fn skip_dead_cycles(&mut self, wake: u64, front: Front) -> u64 {
        let now = self.cycle;
        let head = if self.head_idx < self.next_idx {
            self.rob.completion[self.rob.at(self.head_idx)]
        } else {
            PENDING
        };
        let next = [
            wake,
            head,
            self.fu_simple_int,
            self.fu_complex_int,
            self.fu_ea[0],
            self.fu_ea[1],
            self.fu_fp_add,
            self.fu_fp_mul,
            self.fu_fp_div,
            self.fetch_resume,
        ]
        .into_iter()
        .filter(|&t| t > now)
        .min()
        .unwrap_or(PENDING);
        if next == PENDING {
            return now + 1;
        }
        let skipped = next - now - 1;
        match front {
            Front::FetchStall => self.stats.fetch_stall_cycles += skipped,
            Front::RobStall => self.stats.rob_stall_cycles += skipped,
            _ => {}
        }
        next
    }

    fn snapshot_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.dcache = self.dcache.stats();
        self.stats.predictor = self.dcache.predictor_stats();
        self.stats.tlb = self.dcache.tlb_stats();
        self.stats.branch_mispredictions = self.bpred.mispredictions();
    }

    /// Accumulated statistics so far.
    pub fn stats(&self) -> CpuStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s.dcache = self.dcache.stats();
        s.predictor = self.dcache.predictor_stats();
        s.tlb = self.dcache.tlb_stats();
        s.branch_mispredictions = self.bpred.mispredictions();
        s
    }

    /// The processor configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Ops in the ROB.
    fn rob_len(&self) -> usize {
        (self.next_idx - self.head_idx) as usize
    }

    /// Retires up to `commit_width` completed ops from the ROB head.
    /// Returns `true` if any retired.
    fn commit(&mut self) -> bool {
        let mut committed = 0;
        while committed < self.config.commit_width && self.head_idx < self.next_idx {
            let idx = self.head_idx;
            let s = self.rob.at(idx);
            if self.rob.completion[s] > self.cycle {
                break;
            }
            self.head_idx += 1;
            committed += 1;
            self.stats.instructions += 1;
            match self.rob.class[s] {
                OpClass::Load => self.stats.loads += 1,
                OpClass::Store => {
                    self.stats.stores += 1;
                    self.stores.pop_front();
                    // Write-through at commit.
                    self.dcache.store(self.rob.addr[s]);
                }
                OpClass::Branch => self.stats.branches += 1,
                _ => {}
            }
            if self.rob.forwarded[s] {
                self.stats.forwarded_loads += 1;
            }
            if let Some(dst) = self.rob.dst[s] {
                if dst >= 32 {
                    self.free_fp_regs += 1;
                } else {
                    self.free_int_regs += 1;
                }
                if self.reg_producer[dst as usize] == idx {
                    self.reg_producer[dst as usize] = NO_PRODUCER;
                }
            }
        }
        committed > 0
    }

    /// The cycle the result of `producer` is available: 0 once it has
    /// committed (or for no producer), [`PENDING`] while it waits.
    fn result_at(&self, producer: u64) -> u64 {
        if producer == NO_PRODUCER || producer < self.head_idx {
            0
        } else {
            self.rob.completion[self.rob.at(producer)]
        }
    }

    /// The cycle all source operands of waiting op `idx` are available,
    /// or [`PENDING`] while a producer has not issued.
    fn ready_cycle(&self, idx: u64) -> u64 {
        let [a, b] = self.rob.producers[self.rob.at(idx)];
        self.result_at(a).max(self.result_at(b))
    }

    /// Issues up to `issue_width` ready ops, oldest first. Returns
    /// `None` if an op issued or a load was presented to the data
    /// cache; otherwise the earliest future ready cycle among the
    /// waiting ops ([`PENDING`] if none is known).
    fn issue(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut issued = 0;
        let mut ports_used = 0;
        let mut live = false;
        let mut wake = PENDING;
        let len = self.waiting.len();
        let (mut read, mut kept) = (0, 0);
        while read < len && issued < self.config.issue_width {
            let (idx, mut ready) = self.waiting[read];
            read += 1;
            if ready == PENDING {
                ready = self.ready_cycle(idx);
            }
            if ready > now {
                wake = wake.min(ready);
            } else {
                match self.offer(idx, &mut ports_used) {
                    Offer::Issued => {
                        issued += 1;
                        live = true;
                        continue;
                    }
                    Offer::Blocked => live = true,
                    Offer::Busy => {}
                }
            }
            self.waiting[kept] = (idx, ready);
            kept += 1;
        }
        self.waiting.copy_within(read..len, kept);
        self.waiting.truncate(kept + len - read);
        if live {
            None
        } else {
            Some(wake)
        }
    }

    /// Offers ready op `idx` to its functional unit and, for memory ops,
    /// an EA unit and a memory port.
    fn offer(&mut self, idx: u64, ports_used: &mut u32) -> Offer {
        let now = self.cycle;
        let s = self.rob.at(idx);
        let class = self.rob.class[s];
        let completion = match class {
            OpClass::IntAlu | OpClass::Branch => claim(&mut self.fu_simple_int, now, 1, 1),
            OpClass::IntMul => claim(&mut self.fu_complex_int, now, 1, 9), // pipelined
            OpClass::IntDiv => claim(&mut self.fu_complex_int, now, 67, 67), // unpipelined
            OpClass::FpAdd => claim(&mut self.fu_fp_add, now, 1, 4),
            OpClass::FpMul => claim(&mut self.fu_fp_mul, now, 1, 4),
            OpClass::FpDiv => claim(&mut self.fu_fp_div, now, 16, 16),
            OpClass::FpSqrt => claim(&mut self.fu_fp_div, now, 35, 35),
            OpClass::Load | OpClass::Store => {
                if *ports_used == self.config.mem_ports {
                    return Offer::Busy;
                }
                let Some(ea) = self.fu_ea.iter().position(|&f| f <= now) else {
                    return Offer::Busy;
                };
                let completion = if class == OpClass::Load {
                    match self.load(idx) {
                        Some(at) => at,
                        None => return Offer::Blocked, // retry next cycle
                    }
                } else {
                    self.resolve_store(idx)
                };
                self.fu_ea[ea] = now + 1;
                *ports_used += 1;
                Some(completion)
            }
        };
        let Some(completion) = completion else {
            return Offer::Busy;
        };
        if class == OpClass::Branch {
            self.bpred.update(self.rob.pc[s], self.rob.taken[s]);
            if self.rob.mispredicted[s] && self.pending_branch == Some(idx) {
                self.fetch_resume = completion + 1;
                self.pending_branch = None;
            }
        }
        self.rob.completion[s] = completion;
        Offer::Issued
    }

    /// Completes load `idx` by store-buffer forwarding from an older
    /// store to the same word whose address is resolved, or else from
    /// the data cache. Returns its completion, or `None` when every MSHR
    /// is busy.
    fn load(&mut self, idx: u64) -> Option<u64> {
        let now = self.cycle;
        let s = self.rob.at(idx);
        let word = self.rob.addr[s] & !7;
        let rob = &self.rob;
        let forwarded = self
            .stores
            .iter()
            .take_while(|&&store| store < idx)
            .any(|&store| {
                let t = rob.at(store);
                rob.completion[t] <= now && rob.addr[t] & !7 == word
            });
        let addr_ready = now + 1; // EA unit
        let at = if forwarded {
            addr_ready + 1
        } else {
            match self
                .dcache
                .load(self.rob.pc[s], self.rob.addr[s], addr_ready)
            {
                LoadResponse::Ready { at, .. } => at,
                LoadResponse::Blocked => return None,
            }
        };
        self.rob.forwarded[s] = forwarded;
        Some(at)
    }

    /// Resolves the address of store `idx` and returns its completion.
    /// ARB: younger loads to the same word that already issued replay.
    /// Every such load issued no later than this cycle, so before the
    /// address resolved.
    fn resolve_store(&mut self, idx: u64) -> u64 {
        let completion = self.cycle + 1; // address resolved
        let word = self.rob.addr[self.rob.at(idx)] & !7;
        let mut replayed = false;
        for younger in idx + 1..self.next_idx {
            let t = self.rob.at(younger);
            if self.rob.class[t] == OpClass::Load
                && self.rob.completion[t] != PENDING
                && self.rob.addr[t] & !7 == word
            {
                self.rob.completion[t] = self.rob.completion[t].max(completion + 2);
                self.rob.forwarded[t] = true;
                self.stats.memory_violations += 1;
                replayed = true;
            }
        }
        if replayed {
            // A replayed load's consumers may have cached its old
            // completion.
            for entry in &mut self.waiting {
                entry.1 = PENDING;
            }
        }
        completion
    }

    /// Dispatches up to `fetch_width` instructions.
    fn dispatch<I: Iterator<Item = TraceOp>>(&mut self, trace: &mut I) -> Front {
        if self.cycle < self.fetch_resume {
            self.stats.fetch_stall_cycles += 1;
            return Front::FetchStall;
        }
        let mut dispatched = 0;
        while dispatched < self.config.fetch_width {
            if self.rob_len() == self.config.rob_entries {
                self.stats.rob_stall_cycles += 1;
                return Front::RobStall.after(dispatched);
            }
            if self.cycle < self.fetch_resume {
                return Front::Progress; // mispredicted branch just dispatched
            }
            let Some(op) = self.fetch_buffer.take().or_else(|| trace.next()) else {
                return Front::TraceEnd;
            };
            // Rename: claim a physical register for the destination.
            if let Some(dst) = op.dst {
                let pool = if dst >= 32 {
                    &mut self.free_fp_regs
                } else {
                    &mut self.free_int_regs
                };
                if *pool == 0 {
                    self.fetch_buffer = Some(op);
                    return Front::Idle.after(dispatched);
                }
                *pool -= 1;
            }
            let producer = |r: Option<u8>| match r {
                Some(r) if r != 0 => self.reg_producer[r as usize],
                _ => NO_PRODUCER,
            };
            let producers = [producer(op.srcs[0]), producer(op.srcs[1])];
            let idx = self.next_idx;
            self.next_idx += 1;
            if let Some(dst) = op.dst {
                if dst != 0 {
                    self.reg_producer[dst as usize] = idx;
                }
            }
            let mut mispredicted = false;
            if op.is_branch() {
                let predicted = self.bpred.predict_and_track(op.pc, op.taken);
                if predicted != op.taken {
                    mispredicted = true;
                    self.fetch_resume = u64::MAX;
                    self.pending_branch = Some(idx);
                }
            }
            if self.rob_len() > self.rob.slots() {
                self.rob.grow(self.head_idx, idx);
            }
            let s = self.rob.at(idx);
            self.rob.class[s] = op.class;
            self.rob.pc[s] = op.pc;
            self.rob.addr[s] = op.addr.unwrap_or(0);
            self.rob.dst[s] = op.dst;
            self.rob.taken[s] = op.taken;
            self.rob.producers[s] = producers;
            self.rob.completion[s] = PENDING;
            self.rob.mispredicted[s] = mispredicted;
            self.rob.forwarded[s] = false;
            self.waiting.push((idx, PENDING));
            if op.class == OpClass::Store {
                self.stores.push_back(idx);
            }
            dispatched += 1;
        }
        Front::Progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cac_core::IndexSpec;
    use cac_trace::kernels::{ArrayWalk, LoopKernel};
    use cac_trace::record::TraceOp;

    fn cpu(spec: IndexSpec) -> Processor {
        Processor::new(CpuConfig::paper_baseline(spec).unwrap()).unwrap()
    }

    /// A trace of independent single-cycle integer ops.
    fn indep_ints(n: usize) -> Vec<TraceOp> {
        (0..n)
            .map(|i| {
                TraceOp::compute(
                    0x400 + (i as u64 % 16) * 4,
                    OpClass::IntAlu,
                    0,
                    [None, None],
                )
            })
            .collect()
    }

    #[test]
    fn independent_int_ops_bound_by_fu_width() {
        // One simple-integer unit: IPC must approach 1.0, not 4.0.
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(indep_ints(5000).into_iter(), 5000);
        assert_eq!(s.instructions, 5000);
        assert!(s.ipc() <= 1.05, "ipc {}", s.ipc());
        assert!(s.ipc() > 0.8, "ipc {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // Each op reads the previous result: IPC ~1 (1-cycle latency);
        // now with FP adds (4-cycle latency) IPC ~0.25.
        let ops: Vec<TraceOp> = (0..2000)
            .map(|i| TraceOp::compute(0x400 + (i % 8) * 4, OpClass::FpAdd, 33, [Some(33), None]))
            .collect();
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(ops.into_iter(), 2000);
        assert!(s.ipc() < 0.3, "ipc {}", s.ipc());
        assert!(s.ipc() > 0.2, "ipc {}", s.ipc());
    }

    #[test]
    fn cache_misses_throttle_loads() {
        // Loads marching through memory: every 4th access a new block
        // (8-byte elements), 20-cycle penalty, vs all-hits to one block.
        let streaming: Vec<TraceOp> = (0..3000)
            .map(|i| TraceOp::load(0x400, i * 8, 2, None))
            .collect();
        let hot: Vec<TraceOp> = (0..3000)
            .map(|_| TraceOp::load(0x400, 0x100, 2, None))
            .collect();
        let mut p1 = cpu(IndexSpec::modulo());
        let s1 = p1.run(streaming.into_iter(), 3000);
        let mut p2 = cpu(IndexSpec::modulo());
        let s2 = p2.run(hot.into_iter(), 3000);
        assert!(s1.ipc() < s2.ipc());
        assert!(s1.dcache.misses > 500);
        assert_eq!(s2.dcache.misses, 1);
    }

    #[test]
    fn mispredictions_cost_fetch_stalls() {
        let mut taken = false;
        let alternating: Vec<TraceOp> = (0..2000)
            .map(|_| {
                taken = !taken;
                TraceOp::branch(0x500, taken, 0x400, None)
            })
            .collect();
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(alternating.into_iter(), 2000);
        assert!(s.branch_accuracy() < 0.7);
        assert!(s.fetch_stall_cycles > 500);
        let steady: Vec<TraceOp> = (0..2000)
            .map(|_| TraceOp::branch(0x500, true, 0x400, None))
            .collect();
        let mut p2 = cpu(IndexSpec::modulo());
        let s2 = p2.run(steady.into_iter(), 2000);
        assert!(s2.ipc() > s.ipc());
    }

    #[test]
    fn store_load_forwarding_and_violations() {
        // store to X, load from X, repeatedly: loads should forward (or
        // replay), never read stale timing for free.
        let mut ops = Vec::new();
        for i in 0..500u64 {
            ops.push(TraceOp::store(0x600, 0x9000, 2, None));
            ops.push(TraceOp::load(0x604 + (i % 2) * 8, 0x9000, 3, None));
        }
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(ops.into_iter(), 1000);
        assert_eq!(s.instructions, 1000);
        assert!(s.forwarded_loads + s.memory_violations > 100);
    }

    #[test]
    fn rob_limits_inflight_window() {
        // Long-latency FP divides at the ROB head block commit; the
        // window fills and dispatch stalls.
        let ops: Vec<TraceOp> = (0..400)
            .map(|i| {
                if i % 8 == 0 {
                    TraceOp::compute(0x700, OpClass::FpDiv, 34, [Some(34), None])
                } else {
                    TraceOp::compute(0x704 + (i % 8) * 4, OpClass::IntAlu, 0, [None, None])
                }
            })
            .collect();
        let mut p = cpu(IndexSpec::modulo());
        let s = p.run(ops.into_iter(), 400);
        assert!(s.rob_stall_cycles > 10);
    }

    #[test]
    fn ipoly_beats_modulo_on_conflict_workload() {
        // The headline effect, end to end: a conflict-heavy loop nest on
        // the full processor model.
        let mut k = LoopKernel::template("conflict");
        k.loads = (0..4)
            .map(|i| ArrayWalk::sequential(0x0100_0000 + i * 0x1000, 16, 8))
            .collect();
        k.int_ops = 3;
        let run = |spec: IndexSpec| {
            let mut p = cpu(spec);
            p.run(k.generator(5), 40_000)
        };
        let conv = run(IndexSpec::modulo());
        let poly = run(IndexSpec::ipoly_skewed());
        assert!(
            poly.load_miss_ratio_pct() < conv.load_miss_ratio_pct() / 3.0,
            "conv {:.1}% vs ipoly {:.1}%",
            conv.load_miss_ratio_pct(),
            poly.load_miss_ratio_pct()
        );
        assert!(
            poly.ipc() > conv.ipc() * 1.1,
            "conv IPC {:.3} vs ipoly IPC {:.3}",
            conv.ipc(),
            poly.ipc()
        );
    }

    /// A register-serialized load chain over a small strided ring: each
    /// load's address register is the previous load's destination, so the
    /// cache-access latency sits squarely on the critical path — while
    /// the address *sequence* is a constant stride the §3.4 predictor can
    /// learn. This is precisely the scenario where the XOR delay hurts
    /// and address prediction recovers it.
    fn serial_strided_loads(n: usize) -> Vec<TraceOp> {
        (0..n)
            .map(|i| TraceOp::load(0x400, 0x1000 + (i as u64 % 64) * 8, 2, Some(2)))
            .collect()
    }

    #[test]
    fn xor_critical_path_penalty_reduces_ipc() {
        let base = CpuConfig::paper_baseline(IndexSpec::ipoly_skewed()).unwrap();
        let mut p1 = Processor::new(base.clone()).unwrap();
        let s1 = p1.run(serial_strided_loads(10_000).into_iter(), 10_000);
        let mut p2 = Processor::new(base.with_xor_in_critical_path()).unwrap();
        let s2 = p2.run(serial_strided_loads(10_000).into_iter(), 10_000);
        // Serial chain: ~(1 + 2) cycles/load without the penalty,
        // ~(1 + 3) with it.
        assert!(
            s2.ipc() < s1.ipc() * 0.85,
            "in-CP {:.3} should trail no-CP {:.3}",
            s2.ipc(),
            s1.ipc()
        );
    }

    #[test]
    fn address_prediction_recovers_xor_penalty() {
        let cp = CpuConfig::paper_baseline(IndexSpec::ipoly_skewed())
            .unwrap()
            .with_xor_in_critical_path();
        let mut no_pred = Processor::new(cp.clone()).unwrap();
        let s_no = no_pred.run(serial_strided_loads(10_000).into_iter(), 10_000);
        let mut with_pred = Processor::new(cp.with_address_prediction()).unwrap();
        let s_yes = with_pred.run(serial_strided_loads(10_000).into_iter(), 10_000);
        // Correct predictions overlap the access with the address
        // computation: effective hit time drops from 3 to 1.
        assert!(
            s_yes.ipc() > s_no.ipc() * 1.2,
            "pred {:.3} vs no-pred {:.3}",
            s_yes.ipc(),
            s_no.ipc()
        );
        assert!(s_yes.predictor.unwrap().usable_rate() > 0.5);
    }

    #[test]
    fn run_is_resumable() {
        let mut p = cpu(IndexSpec::modulo());
        let ops = indep_ints(2000);
        let s1 = p.run(ops.clone().into_iter().take(1000), 1000);
        let s2 = p.run(ops.into_iter().skip(1000), 1000);
        assert_eq!(s1.instructions, 1000);
        assert_eq!(s2.instructions, 2000);
        assert!(s2.cycles >= s1.cycles);
    }

    #[test]
    fn rejects_undersized_register_files() {
        let mut c = CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap();
        c.int_phys_regs = 16;
        assert!(Processor::new(c).is_err());
    }

    #[test]
    fn rename_stall_holds_the_op_until_a_register_frees() {
        // A 64-entry ROB over 32 free registers per pool: behind each
        // 16-cycle divide, 63 independent int ops exhaust the int pool
        // with ROB space to spare. Every op must still commit.
        let mut c = CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap();
        c.rob_entries = 64;
        let ops: Vec<TraceOp> = (0..2000u64)
            .map(|i| {
                if i % 64 == 0 {
                    TraceOp::compute(0x700, OpClass::FpDiv, 33, [None, None])
                } else {
                    let dst = 1 + (i % 31) as u8;
                    TraceOp::compute(0x704 + (i % 64) * 4, OpClass::IntAlu, dst, [None, None])
                }
            })
            .collect();
        let mut p = Processor::new(c).unwrap();
        let s = p.run(ops.into_iter(), 4000);
        assert_eq!(s.instructions, 2000);
    }

    fn rejects_zero(field: &str, zero: impl FnOnce(&mut CpuConfig)) {
        let mut c = CpuConfig::paper_baseline(IndexSpec::modulo()).unwrap();
        zero(&mut c);
        match Processor::new(c) {
            Err(Error::OutOfRange { what, value: 0, .. }) => assert_eq!(what, field),
            other => panic!("{field} = 0: expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_fetch_width() {
        rejects_zero("fetch width", |c| c.fetch_width = 0);
    }

    #[test]
    fn rejects_zero_issue_width() {
        rejects_zero("issue width", |c| c.issue_width = 0);
    }

    #[test]
    fn rejects_zero_commit_width() {
        rejects_zero("commit width", |c| c.commit_width = 0);
    }

    #[test]
    fn rejects_zero_rob_entries() {
        rejects_zero("reorder-buffer entries", |c| c.rob_entries = 0);
    }

    #[test]
    fn rejects_zero_mem_ports() {
        rejects_zero("memory ports", |c| c.mem_ports = 0);
    }

    #[test]
    fn rejects_zero_mshrs() {
        rejects_zero("MSHRs", |c| c.mshrs = 0);
    }
}
