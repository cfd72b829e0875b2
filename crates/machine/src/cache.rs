//! Set-associative caches with MESI line states and a private three-level
//! per-CPU hierarchy.
//!
//! Coherence is tracked at the L2/L3 line granularity (128 bytes on
//! Itanium 2 — the paper's DAXPY analysis depends on this line size). The
//! hierarchy is inclusive: every L1/L2-resident line is also L3-resident, so
//! the authoritative MESI state of a line lives in the L3 entry; L1 and L2
//! track presence (for hit-latency purposes) and are back-invalidated when
//! the L3 copy is evicted or invalidated. FP loads bypass L1, as on the real
//! processor.

use serde::{Deserialize, Serialize};

use crate::config::CacheGeometry;

/// MESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mesi {
    Modified,
    Exclusive,
    Shared,
}

/// A line-address: byte address divided by the line size of the level.
pub type LineAddr = u64;

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    state: Mesi,
    lru: u64,
    valid: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        tag: 0,
        state: Mesi::Shared,
        lru: 0,
        valid: false,
    };
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    sets: usize,
    slots: Vec<Slot>, // sets * ways
    tick: u64,
}

impl Cache {
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            geom,
            sets,
            slots: vec![Slot::EMPTY; sets * geom.ways],
            tick: 0,
        }
    }

    #[inline]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        (line as usize) & (self.sets - 1)
    }

    #[inline]
    fn set_slots(&mut self, line: LineAddr) -> &mut [Slot] {
        let idx = self.set_index(line);
        let ways = self.geom.ways;
        &mut self.slots[idx * ways..(idx + 1) * ways]
    }

    /// Look up a line; updates LRU on hit.
    pub fn probe(&mut self, line: LineAddr) -> Option<Mesi> {
        self.tick += 1;
        let tick = self.tick;
        let slots = self.set_slots(line);
        for s in slots.iter_mut() {
            if s.valid && s.tag == line {
                s.lru = tick;
                return Some(s.state);
            }
        }
        None
    }

    /// Look up without touching LRU (snoops must not perturb locality).
    pub fn peek(&self, line: LineAddr) -> Option<Mesi> {
        let idx = self.set_index(line);
        let ways = self.geom.ways;
        self.slots[idx * ways..(idx + 1) * ways]
            .iter()
            .find(|s| s.valid && s.tag == line)
            .map(|s| s.state)
    }

    /// Change the state of a resident line. Returns false if absent.
    pub fn set_state(&mut self, line: LineAddr, state: Mesi) -> bool {
        let slots = self.set_slots(line);
        for s in slots.iter_mut() {
            if s.valid && s.tag == line {
                s.state = state;
                return true;
            }
        }
        false
    }

    /// Insert a line, evicting the LRU victim if the set is full.
    /// Returns the evicted `(line, state)` if one was displaced.
    pub fn insert(&mut self, line: LineAddr, state: Mesi) -> Option<(LineAddr, Mesi)> {
        self.tick += 1;
        let tick = self.tick;
        let slots = self.set_slots(line);
        // Already present: update state in place.
        for s in slots.iter_mut() {
            if s.valid && s.tag == line {
                s.state = state;
                s.lru = tick;
                return None;
            }
        }
        // Free slot?
        for s in slots.iter_mut() {
            if !s.valid {
                *s = Slot {
                    tag: line,
                    state,
                    lru: tick,
                    valid: true,
                };
                return None;
            }
        }
        // Evict LRU.
        let victim = slots
            .iter_mut()
            .min_by_key(|s| s.lru)
            .expect("non-zero associativity");
        let evicted = (victim.tag, victim.state);
        *victim = Slot {
            tag: line,
            state,
            lru: tick,
            valid: true,
        };
        Some(evicted)
    }

    /// Remove a line; returns its previous state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Mesi> {
        let slots = self.set_slots(line);
        for s in slots.iter_mut() {
            if s.valid && s.tag == line {
                s.valid = false;
                return Some(s.state);
            }
        }
        None
    }

    /// Number of valid lines (for occupancy diagnostics/tests).
    pub fn resident_lines(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }
}

/// Side effect of a fill that the memory system must turn into bus traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillEffect {
    /// A modified line left L3 and must be written back to memory.
    WritebackL3(LineAddr),
    /// A dirty line was displaced from L2 into the inclusive L3 (no bus
    /// traffic, but counted — the paper attributes the 2 MB `lfetch.excl`
    /// slowdown to increased L2 writebacks).
    WritebackL2(LineAddr),
}

/// Level at which a probe hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    L1,
    L2,
    L3,
}

/// A CPU's private L1D/L2/L3 stack.
///
/// L1 indexing uses its own (smaller) line size; a coherence line maps to
/// `l2_line / l1_line` L1 lines which are invalidated together.
#[derive(Debug, Clone)]
pub struct PrivateHierarchy {
    pub l1: Cache,
    pub l2: Cache,
    pub l3: Cache,
    l1_lines_per_coherence_line: u64,
}

impl PrivateHierarchy {
    pub fn new(l1: CacheGeometry, l2: CacheGeometry, l3: CacheGeometry) -> Self {
        assert_eq!(l2.line, l3.line, "L2 and L3 share the coherence line size");
        assert!(l2.line >= l1.line && l2.line.is_multiple_of(l1.line));
        let ratio = (l2.line / l1.line) as u64;
        PrivateHierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l3: Cache::new(l3),
            l1_lines_per_coherence_line: ratio,
        }
    }

    /// Authoritative MESI state of a coherence line (from the inclusive L3).
    #[inline]
    pub fn state(&self, line: LineAddr) -> Option<Mesi> {
        self.l3.peek(line)
    }

    /// Probe for a load. `fp` loads skip L1; `l1_line` is the L1-granularity
    /// line address of the access (only consulted for integer loads).
    pub fn probe_load(&mut self, line: LineAddr, l1_line: LineAddr, fp: bool) -> Option<HitLevel> {
        if !fp && self.l1.probe(l1_line).is_some() {
            // L1 presence implies L2/L3 presence (inclusion); refresh LRU.
            self.l2.probe(line);
            self.l3.probe(line);
            return Some(HitLevel::L1);
        }
        if self.l2.probe(line).is_some() {
            self.l3.probe(line);
            if !fp {
                self.fill_l1(l1_line);
            }
            return Some(HitLevel::L2);
        }
        if self.l3.probe(line).is_some() {
            // Refill the inner levels (presence only; state stays in L3).
            let state = self.l3.peek(line).expect("just probed");
            self.l2.insert(line, state);
            if !fp {
                self.fill_l1(l1_line);
            }
            return Some(HitLevel::L3);
        }
        None
    }

    fn fill_l1(&mut self, l1_line: LineAddr) {
        // L1 victims are clean by construction (write-through to L2 model).
        let _ = self.l1.insert(l1_line, Mesi::Exclusive);
    }

    /// Install a coherence line with `state`, maintaining inclusion.
    /// Returns bus-relevant side effects (L3 writebacks of dirty victims).
    pub fn fill(
        &mut self,
        line: LineAddr,
        state: Mesi,
        into_l1: Option<LineAddr>,
    ) -> Vec<FillEffect> {
        let mut effects = Vec::new();
        if let Some((victim, victim_state)) = self.l3.insert(line, state) {
            // Back-invalidate inner copies of the displaced line (inclusion).
            self.invalidate_inner(victim);
            if victim_state == Mesi::Modified {
                effects.push(FillEffect::WritebackL3(victim));
            }
        }
        // L2 holds presence; a dirty L2 victim's data lands in the inclusive
        // L3 (no bus traffic), but the writeback is still counted.
        if let Some((victim, _)) = self.l2.insert(line, state) {
            if self.l3.peek(victim) == Some(Mesi::Modified) {
                effects.push(FillEffect::WritebackL2(victim));
            }
        }
        if let Some(l1_line) = into_l1 {
            self.fill_l1(l1_line);
        }
        effects
    }

    fn invalidate_inner(&mut self, line: LineAddr) {
        self.l2.invalidate(line);
        let first = line * self.l1_lines_per_coherence_line;
        for k in 0..self.l1_lines_per_coherence_line {
            self.l1.invalidate(first + k);
        }
    }

    /// Set the MESI state of a resident line at every level holding it.
    pub fn set_state(&mut self, line: LineAddr, state: Mesi) {
        self.l3.set_state(line, state);
        self.l2.set_state(line, state);
    }

    /// Invalidate a line everywhere; returns its previous coherence state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Mesi> {
        let prev = self.l3.invalidate(line);
        if prev.is_some() {
            self.invalidate_inner(line);
        } else {
            // Defensive: L2/L1 must not hold lines L3 lacks.
            debug_assert!(self.l2.peek(line).is_none());
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn hierarchy() -> PrivateHierarchy {
        let c = MachineConfig::smp4();
        PrivateHierarchy::new(c.l1d, c.l2, c.l3)
    }

    #[test]
    fn insert_probe_invalidate() {
        let mut c = Cache::new(MachineConfig::smp4().l2);
        assert_eq!(c.probe(42), None);
        assert_eq!(c.insert(42, Mesi::Exclusive), None);
        assert_eq!(c.probe(42), Some(Mesi::Exclusive));
        assert!(c.set_state(42, Mesi::Modified));
        assert_eq!(c.peek(42), Some(Mesi::Modified));
        assert_eq!(c.invalidate(42), Some(Mesi::Modified));
        assert_eq!(c.probe(42), None);
        assert!(!c.set_state(42, Mesi::Shared));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let geom = CacheGeometry {
            size: 4 * 128,
            ways: 4,
            line: 128,
            hit_latency: 1,
        };
        let mut c = Cache::new(geom); // 1 set, 4 ways
        for line in 0..4 {
            assert_eq!(c.insert(line, Mesi::Shared), None);
        }
        // Touch 0 so 1 becomes LRU.
        assert!(c.probe(0).is_some());
        let evicted = c.insert(100, Mesi::Shared).unwrap();
        assert_eq!(evicted.0, 1);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let geom = CacheGeometry {
            size: 2 * 128,
            ways: 2,
            line: 128,
            hit_latency: 1,
        };
        let mut c = Cache::new(geom);
        c.insert(7, Mesi::Shared);
        assert_eq!(c.insert(7, Mesi::Modified), None);
        assert_eq!(c.peek(7), Some(Mesi::Modified));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn hierarchy_inclusion_and_hit_levels() {
        let mut h = hierarchy();
        let line = 10u64;
        let l1_line = line * 2;
        assert_eq!(h.probe_load(line, l1_line, true), None);
        h.fill(line, Mesi::Exclusive, None);
        // FP load hits in L2 after a fill.
        assert_eq!(h.probe_load(line, l1_line, true), Some(HitLevel::L2));
        // Integer load misses L1 first time (we filled without L1), hits L2,
        // then hits L1 on the second access.
        assert_eq!(h.probe_load(line, l1_line, false), Some(HitLevel::L2));
        assert_eq!(h.probe_load(line, l1_line, false), Some(HitLevel::L1));
    }

    #[test]
    fn invalidation_clears_all_levels() {
        let mut h = hierarchy();
        let line = 99u64;
        let l1_line = line * 2;
        h.fill(line, Mesi::Modified, Some(l1_line));
        assert_eq!(h.state(line), Some(Mesi::Modified));
        assert_eq!(h.invalidate(line), Some(Mesi::Modified));
        assert_eq!(h.state(line), None);
        assert_eq!(h.probe_load(line, l1_line, false), None);
        assert_eq!(h.l1.peek(l1_line), None);
        assert_eq!(h.invalidate(line), None);
    }

    #[test]
    fn dirty_l3_eviction_reports_writeback() {
        let c = MachineConfig::smp4();
        // Shrink L3 to a single set of 2 ways for a deterministic eviction.
        let tiny = CacheGeometry {
            size: 2 * 128,
            ways: 2,
            line: 128,
            hit_latency: 12,
        };
        let mut h = PrivateHierarchy::new(
            c.l1d,
            CacheGeometry {
                size: 2 * 128,
                ways: 2,
                line: 128,
                hit_latency: 5,
            },
            tiny,
        );
        assert!(h.fill(1, Mesi::Modified, None).is_empty());
        assert!(h.fill(2, Mesi::Shared, None).is_empty());
        let effects = h.fill(3, Mesi::Exclusive, None);
        assert_eq!(effects, vec![FillEffect::WritebackL3(1)]);
        // The displaced line must be gone from every level (inclusion).
        assert_eq!(h.state(1), None);
        assert_eq!(h.l2.peek(1), None);
    }

    #[test]
    fn set_state_applies_to_both_coherent_levels() {
        let mut h = hierarchy();
        h.fill(5, Mesi::Exclusive, None);
        h.set_state(5, Mesi::Shared);
        assert_eq!(h.l3.peek(5), Some(Mesi::Shared));
        assert_eq!(h.l2.peek(5), Some(Mesi::Shared));
    }
}
