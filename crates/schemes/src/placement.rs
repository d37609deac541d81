//! Block-to-disk layouts (Figure 6-1).
//!
//! A placement maps every *stored block* — a plain block, a replica copy,
//! or an LT-coded block — to a position on one of the H selected disks.
//! The per-disk order is the on-disk order: disks service a speculative
//! access's blocks in exactly this order, which is what makes RRAID-S
//! sensitive to *intra-disk block ordering* (§6.3.1).

/// One stored block: the semantic id (original-block id for plain/replica
/// layouts, coded-block id for RobuSTore) plus the copy number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBlock {
    /// Original or coded block id.
    pub semantic: u32,
    /// Replica number (always 0 for striped and coded layouts).
    pub copy: u8,
}

/// A data layout across H disk slots.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Stored blocks per disk slot, in on-disk order.
    pub per_disk: Vec<Vec<StoredBlock>>,
    /// Number of original blocks K.
    pub k: usize,
}

impl Placement {
    /// RAID-0: block i on disk i mod H (Figure 6-1c).
    pub fn raid0(k: usize, disks: usize) -> Self {
        assert!(disks > 0 && k > 0);
        let mut per_disk = vec![Vec::new(); disks];
        for i in 0..k {
            per_disk[i % disks].push(StoredBlock {
                semantic: i as u32,
                copy: 0,
            });
        }
        Placement { per_disk, k }
    }

    /// RRAID (S and A): copy r of block i on disk (i + r) mod H, per-disk
    /// order replica-major (Figure 6-1d). `n_stored` allows arbitrary
    /// redundancy: full replicas plus a partial replica covering the first
    /// `n_stored − full·K` originals.
    pub fn rraid(k: usize, n_stored: usize, disks: usize) -> Self {
        assert!(disks > 0 && k > 0);
        assert!(n_stored >= k, "need at least one copy of each original");
        let mut per_disk = vec![Vec::new(); disks];
        let full = n_stored / k;
        let partial = n_stored % k;
        for r in 0..full {
            for i in 0..k {
                per_disk[(i + r) % disks].push(StoredBlock {
                    semantic: i as u32,
                    copy: r as u8,
                });
            }
        }
        for i in 0..partial {
            per_disk[(i + full) % disks].push(StoredBlock {
                semantic: i as u32,
                copy: full as u8,
            });
        }
        Placement { per_disk, k }
    }

    /// RobuSTore balanced striping: coded block j on disk j mod H
    /// (Figure 6-1e).
    pub fn coded_balanced(k: usize, n_coded: usize, disks: usize) -> Self {
        assert!(disks > 0 && n_coded > 0);
        let mut per_disk = vec![Vec::new(); disks];
        for j in 0..n_coded {
            per_disk[j % disks].push(StoredBlock {
                semantic: j as u32,
                copy: 0,
            });
        }
        Placement { per_disk, k }
    }

    /// RobuSTore unbalanced striping: per-disk block counts proportional
    /// to `weights` (per-disk write bandwidth from a speculative write),
    /// allocated by largest remainder ([`apportion`]) so counts sum
    /// exactly to `n_coded`; ids follow [`Placement::coded_paired`].
    pub fn coded_weighted(k: usize, n_coded: usize, weights: &[f64]) -> Self {
        assert!(n_coded > 0);
        Self::coded_paired(k, &apportion(n_coded, weights))
    }

    /// A coded layout with `counts[d]` blocks on slot `d`. Ids `0..N` go
    /// to the slots one after another, each slot taking a contiguous run,
    /// and every other slot that holds blocks stores its run in
    /// descending order. So the slots pair up: a read takes each slot's
    /// blocks in on-disk order, and both slots of a pair read outward
    /// from the id boundary they share. Whatever each has served, a
    /// pair's blocks read so far are one contiguous run of ids.
    ///
    /// Which coded id lands where matters, although coded blocks are
    /// interchangeable to the decoder. The LT graph draws neighbours from
    /// successive permutations of the originals, so a run of consecutive
    /// ids covers every original evenly, and the fewer runs a read's
    /// blocks form, the sooner it decodes: over 8 equal disks a read is 4
    /// runs instead of 8. Each slot still holds the one run a
    /// disk-by-disk fill gives it, because that is what a disk loss takes
    /// away: a fill that gives each slot two shorter runs decodes a
    /// quiescent first wave sooner but leaves 2–3× as many files
    /// undecodable when 3 of 8 disks are lost (DESIGN §3d).
    pub fn coded_paired(k: usize, counts: &[usize]) -> Self {
        let mut next = 0u32;
        let mut filled = 0usize;
        let per_disk = counts
            .iter()
            .map(|&c| {
                let run = (next..next + c as u32).map(|semantic| StoredBlock { semantic, copy: 0 });
                next += c as u32;
                let descending = c > 0 && filled.is_multiple_of(2);
                filled += usize::from(c > 0);
                if descending {
                    run.rev().collect()
                } else {
                    run.collect()
                }
            })
            .collect();
        Placement { per_disk, k }
    }

    /// Build directly from explicit per-disk semantic lists (used to read
    /// back exactly what a simulated write stored).
    pub fn from_lists(k: usize, lists: Vec<Vec<u32>>) -> Self {
        let per_disk = lists
            .into_iter()
            .map(|l| {
                l.into_iter()
                    .map(|semantic| StoredBlock { semantic, copy: 0 })
                    .collect()
            })
            .collect();
        Placement { per_disk, k }
    }

    /// Number of disk slots.
    pub fn disks(&self) -> usize {
        self.per_disk.len()
    }

    /// Total stored blocks.
    pub fn total_blocks(&self) -> usize {
        self.per_disk.iter().map(|d| d.len()).sum()
    }

    /// Position of a copy of `semantic` on disk `slot`, if stored there.
    pub fn find_on_disk(&self, slot: usize, semantic: u32) -> Option<usize> {
        self.per_disk[slot]
            .iter()
            .position(|b| b.semantic == semantic)
    }

    /// How many copies of each semantic exist (diagnostics / tests).
    pub fn copy_counts(&self) -> std::collections::HashMap<u32, usize> {
        let mut m = std::collections::HashMap::new();
        for d in &self.per_disk {
            for b in d {
                *m.entry(b.semantic).or_insert(0) += 1;
            }
        }
        m
    }
}

/// Largest-remainder apportionment of `n` over `weights`: every slot gets
/// the floor of its quota, and the slots with the largest remainders
/// (lowest index first on ties) one more, so the counts sum to `n`.
pub fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty());
    assert!(weights.iter().all(|&w| w >= 0.0));
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "at least one positive weight");
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = quotas[a] - quotas[a].floor();
        let rb = quotas[b] - quotas[b].floor();
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    for &d in order.iter().take(n - assigned) {
        counts[d] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid0_round_robin() {
        let p = Placement::raid0(8, 4);
        assert_eq!(p.total_blocks(), 8);
        assert_eq!(
            p.per_disk[0].iter().map(|b| b.semantic).collect::<Vec<_>>(),
            vec![0, 4]
        );
        assert_eq!(
            p.per_disk[3].iter().map(|b| b.semantic).collect::<Vec<_>>(),
            vec![3, 7]
        );
    }

    #[test]
    fn rraid_rotates_replicas() {
        // Figure 6-1d: 8 blocks, 2 replicas, 4 disks.
        let p = Placement::rraid(8, 16, 4);
        assert_eq!(p.total_blocks(), 16);
        // Disk 0: replica 0 of {0,4}, replica 1 of {3,7} (rotated by one).
        let d0: Vec<(u32, u8)> = p.per_disk[0].iter().map(|b| (b.semantic, b.copy)).collect();
        assert_eq!(d0, vec![(0, 0), (4, 0), (3, 1), (7, 1)]);
        // Every original has exactly 2 copies.
        assert!(p.copy_counts().values().all(|&c| c == 2));
    }

    #[test]
    fn rraid_partial_replica() {
        // 8 originals, 12 stored = 1.5 replicas: originals 0..4 get 2
        // copies, the rest 1.
        let p = Placement::rraid(8, 12, 4);
        assert_eq!(p.total_blocks(), 12);
        let counts = p.copy_counts();
        for i in 0..4u32 {
            assert_eq!(counts[&i], 2, "original {i}");
        }
        for i in 4..8u32 {
            assert_eq!(counts[&i], 1, "original {i}");
        }
    }

    #[test]
    fn rraid_every_original_present() {
        let p = Placement::rraid(100, 317, 7);
        let counts = p.copy_counts();
        for i in 0..100u32 {
            assert!(counts[&i] >= 1);
        }
        assert_eq!(p.total_blocks(), 317);
    }

    #[test]
    fn coded_balanced_even_split() {
        let p = Placement::coded_balanced(8, 32, 4);
        assert!(p.per_disk.iter().all(|d| d.len() == 8));
        // All semantics distinct (coded blocks are never duplicated).
        assert!(p.copy_counts().values().all(|&c| c == 1));
    }

    #[test]
    fn coded_weighted_proportional() {
        let p = Placement::coded_weighted(8, 100, &[1.0, 3.0, 1.0, 5.0]);
        let counts: Vec<usize> = p.per_disk.iter().map(|d| d.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(counts, vec![10, 30, 10, 50]);
        assert!(p.copy_counts().values().all(|&c| c == 1));
    }

    #[test]
    fn coded_weighted_largest_remainder() {
        let p = Placement::coded_weighted(4, 10, &[1.0, 1.0, 1.0]);
        let counts: Vec<usize> = p.per_disk.iter().map(|d| d.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| (3..=4).contains(&c)));
    }

    #[test]
    fn coded_weighted_zero_weight_disk_gets_nothing() {
        let p = Placement::coded_weighted(4, 12, &[0.0, 1.0, 2.0]);
        assert_eq!(p.per_disk[0].len(), 0);
        assert_eq!(p.total_blocks(), 12);
    }

    fn ids(p: &Placement) -> Vec<Vec<u32>> {
        p.per_disk
            .iter()
            .map(|d| d.iter().map(|b| b.semantic).collect())
            .collect()
    }

    #[test]
    fn placement_pairs_equal_disks() {
        // K = 16, N = 48: slot d holds [6d, 6d + 6), descending on even
        // slots, so each pair reads outward from its shared boundary.
        let p = Placement::coded_weighted(16, 48, &[1.0; 8]);
        let want: Vec<Vec<u32>> = (0..8u32)
            .map(|d| {
                let run = 6 * d..6 * d + 6;
                if d % 2 == 0 {
                    run.rev().collect()
                } else {
                    run.collect()
                }
            })
            .collect();
        assert_eq!(ids(&p), want);
    }

    #[test]
    fn placement_pairs_weighted() {
        let p = Placement::coded_weighted(8, 100, &[1.0, 3.0, 1.0, 5.0]);
        let want: Vec<Vec<u32>> = vec![
            (0..10).rev().collect(),
            (10..40).collect(),
            (40..50).rev().collect(),
            (50..100).collect(),
        ];
        assert_eq!(ids(&p), want);
    }

    #[test]
    fn placement_pairs_skip_an_empty_slot() {
        // The empty slot takes no part in the pairing: slots 1 and 2 pair.
        let p = Placement::coded_weighted(4, 12, &[0.0, 1.0, 2.0]);
        let want: Vec<Vec<u32>> = vec![vec![], vec![3, 2, 1, 0], (4..12).collect()];
        assert_eq!(ids(&p), want);
    }

    #[test]
    fn placement_of_two_originals_over_eight_disks_is_disk_by_disk() {
        // K = 2, N = 6: one block on each of the first six slots, the
        // layout a disk-by-disk fill gives.
        let p = Placement::coded_weighted(2, 6, &[1.0; 8]);
        let want: Vec<Vec<u32>> = (0..8u32)
            .map(|d| if d < 6 { vec![d] } else { vec![] })
            .collect();
        assert_eq!(ids(&p), want);
    }

    #[test]
    fn placement_pair_reads_stay_contiguous() {
        // However many blocks each slot of a pair has served, the ids read
        // so far form one run.
        let p = Placement::coded_paired(10, &[5, 9, 0, 7, 4]);
        assert_eq!(p.total_blocks(), 25);
        for (lo, hi) in [(0, 1), (3, 4)] {
            for i in 0..=p.per_disk[lo].len() {
                for j in 0..=p.per_disk[hi].len() {
                    let mut got: Vec<u32> = p.per_disk[lo][..i]
                        .iter()
                        .chain(&p.per_disk[hi][..j])
                        .map(|b| b.semantic)
                        .collect();
                    got.sort_unstable();
                    assert!(got.windows(2).all(|w| w[1] == w[0] + 1), "{got:?}");
                }
            }
        }
    }

    #[test]
    fn find_on_disk() {
        let p = Placement::rraid(8, 16, 4);
        assert_eq!(p.find_on_disk(0, 0), Some(0));
        assert_eq!(p.find_on_disk(0, 3), Some(2)); // replica 1 of block 3
        assert_eq!(p.find_on_disk(0, 1), None);
    }

    #[test]
    fn from_lists_roundtrip() {
        let p = Placement::from_lists(4, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(p.disks(), 2);
        assert_eq!(p.total_blocks(), 4);
        assert_eq!(p.find_on_disk(1, 3), Some(1));
    }
}
