//! The seeded request stream of the `daemon-sweep` workload: `Small`
//! sizing sweeps of two kernels over all four models, the main
//! configuration plus points from a fixed store-buffer or ROB menu. The
//! stream is a pure function of its seed.
//!
//! The menus and the three kinds of request follow the sweeps documented
//! in EXPERIMENTS.md ("Config sizing sweeps" and "Running sweeps through
//! the daemon"):
//! - a fresh sweep: `main` plus [`POINTS`] points of one menu;
//! - a repeat: an earlier request sent again, which the store answers;
//! - an extension: an earlier fresh sweep with [`EXTRA`] more menu
//!   points, of which only the new points simulate.
//!
//! How often each kind comes has no recorded source. The stream assumes
//! blocks of ten requests: four fresh sweeps, two extensions (of the
//! block's first and third fresh sweep, each somewhere after it) and four
//! repeats, in seeded order. The run reports the hit and partial-hit
//! shares it measured, so a change to this mix shows.
//!
//! What the sweeps contain does not depend on the seed, so every seed
//! puts the same jobs on the daemon and a stream prefix costs the same
//! whatever the seed (kernels differ tenfold in host cost, and tight
//! store buffers stall): the n-th fresh sweep takes the next two kernels
//! in the suite's order and the next [`POINTS`] points of its menu in
//! rotation, and its extension the [`EXTRA`] points after those. Fresh
//! sweeps take the store-buffer menu twice, then the ROB menu twice. As
//! the menus are fixed, a fresh sweep of a kernel met before finds
//! `main`, and often some of its points, in the store.
//!
//! The seed moves where the repeats and extensions fall and what each
//! repeat copies.

use dmdp_harness::CfgPatch;
use dmdp_prng::Prng;

/// Store-buffer sizes a sweep draws from: the store-buffer sizing sweep
/// of EXPERIMENTS.md and `scripts/bench.sh` (the main configuration's 16
/// is `main`).
pub const SB_MENU: [usize; 8] = [1, 2, 4, 6, 8, 12, 24, 32];
/// ROB sizes a sweep draws from: those the repository's sweep smoke and
/// harness and server tests use, and the paper's 512-entry alternative
/// machine (§VI-g); the main configuration's 256 is `main`.
pub const ROB_MENU: [usize; 5] = [32, 48, 64, 128, 512];
/// Menu points of a fresh sweep.
pub const POINTS: usize = 3;
/// Menu points an extension adds.
pub const EXTRA: usize = 2;
/// How far back a repeat reaches at least (when the stream is that long),
/// so that with two closed-loop clients its original has almost always
/// finished and the repeat measures a store read.
pub const REPEAT_LAG: usize = 10;

/// How a request relates to the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The next kernels and menu points.
    Fresh,
    /// An exact copy of an earlier request.
    Repeat,
    /// An earlier fresh sweep with more points.
    Extend,
}

/// One sizing sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Position in the stream.
    pub index: usize,
    /// How the request was made.
    pub kind: Kind,
    /// The earlier request it repeats or extends.
    pub of: Option<usize>,
    /// Kernels swept.
    pub kernels: Vec<&'static str>,
    /// `main` followed by the swept points, as `(label, patch)`.
    pub variants: Vec<(String, CfgPatch)>,
}

impl SweepRequest {
    /// One-line description, for the run record and replays.
    pub fn describe(&self) -> String {
        let labels: Vec<&str> = self.variants.iter().map(|(l, _)| l.as_str()).collect();
        let of = self.of.map_or(String::new(), |o| format!(" of={o}"));
        format!(
            "{} {:?}{of} kernels={} variants={}",
            self.index,
            self.kind,
            self.kernels.join(","),
            labels.join(",")
        )
    }
}

/// The stream generator.
pub struct Stream {
    prng: Prng,
    /// Kernels dealt so far.
    dealt: usize,
    /// Points dealt so far from the store-buffer and the ROB menu.
    menu_dealt: [usize; 2],
    /// Per fresh sweep: its stream position, menu and first menu slot.
    fresh: Vec<(usize, bool, usize)>,
    /// Extensions made so far.
    extends: usize,
    /// The rest of the current block, next request last.
    block: Vec<Kind>,
    made: Vec<SweepRequest>,
}

impl Stream {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            prng: Prng::new(seed ^ 0x5EED_D3D9_0000_0001),
            dealt: 0,
            menu_dealt: [0, 0],
            fresh: Vec::new(),
            extends: 0,
            block: Vec::new(),
            made: Vec::new(),
        }
    }

    /// The first `n` requests of the stream seeded by `seed`.
    #[cfg(test)]
    pub fn take(seed: u64, n: usize) -> Vec<SweepRequest> {
        let mut s = Stream::new(seed);
        (0..n).map(|_| s.next_request()).collect()
    }

    /// The next block's kinds in seeded order: four fresh sweeps, an
    /// extension somewhere after the first and another after the third
    /// (and after the first extension), and four repeats anywhere but at
    /// the very start of the stream.
    fn new_block(&mut self) -> Vec<Kind> {
        let mut b = vec![Kind::Fresh; 4];
        let mut lo = 0;
        for nth in [0, 2] {
            let after = b
                .iter()
                .enumerate()
                .filter(|(_, k)| **k == Kind::Fresh)
                .nth(nth)
                .map(|(i, _)| i + 1)
                .expect("four fresh sweeps");
            let from = after.max(lo);
            let at = from + self.prng.index(b.len() - from + 1);
            b.insert(at, Kind::Extend);
            lo = at + 1;
        }
        let from = usize::from(self.made.is_empty());
        for _ in 0..4 {
            let at = from + self.prng.index(b.len() - from + 1);
            b.insert(at, Kind::Repeat);
        }
        b.reverse();
        b
    }

    /// The next request.
    pub fn next_request(&mut self) -> SweepRequest {
        if self.block.is_empty() {
            self.block = self.new_block();
        }
        let kind = self.block.pop().expect("refilled above");
        let index = self.made.len();
        let req = match kind {
            Kind::Fresh => {
                let sb = (self.fresh.len() / 2).is_multiple_of(2);
                let slot = self.menu_dealt[usize::from(!sb)];
                self.menu_dealt[usize::from(!sb)] += POINTS;
                self.fresh.push((index, sb, slot));
                let kernels = vec![self.deal(), self.deal()];
                let mut variants = vec![("main".to_string(), CfgPatch::default())];
                variants.extend(menu_points(sb, slot, POINTS));
                SweepRequest {
                    index,
                    kind,
                    of: None,
                    kernels,
                    variants,
                }
            }
            Kind::Repeat => {
                let of = self.prng.index(index.saturating_sub(REPEAT_LAG).max(1));
                SweepRequest {
                    index,
                    kind,
                    of: Some(of),
                    ..self.made[of].clone()
                }
            }
            Kind::Extend => {
                // The block's first fresh sweep, then its third.
                let e = self.extends;
                self.extends += 1;
                let (of, sb, slot) = self.fresh[4 * (e / 2) + 2 * (e % 2)];
                let mut req = SweepRequest {
                    index,
                    kind,
                    of: Some(of),
                    ..self.made[of].clone()
                };
                req.variants.extend(menu_points(sb, slot + POINTS, EXTRA));
                req
            }
        };
        self.made.push(req.clone());
        req
    }

    fn deal(&mut self) -> &'static str {
        let names = dmdp_workloads::names();
        self.dealt += 1;
        names[(self.dealt - 1) % names.len()]
    }
}

/// `n` points of the store-buffer (`sb`) or ROB menu, taken in rotation
/// from slot `slot` on, in menu order.
fn menu_points(sb: bool, slot: usize, n: usize) -> Vec<(String, CfgPatch)> {
    let menu: &[usize] = if sb { &SB_MENU } else { &ROB_MENU };
    let mut picked: Vec<usize> = (slot..slot + n).map(|i| menu[i % menu.len()]).collect();
    picked.sort_unstable();
    picked.into_iter().map(|v| point(sb, v)).collect()
}

fn point(sb: bool, v: usize) -> (String, CfgPatch) {
    if sb {
        (
            format!("sb{v}"),
            CfgPatch {
                sb: Some(v),
                ..CfgPatch::default()
            },
        )
    } else {
        (
            format!("rob{v}"),
            CfgPatch {
                rob: Some(v),
                ..CfgPatch::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(Stream::take(7, 60), Stream::take(7, 60));
    }

    #[test]
    fn different_seed_different_stream() {
        assert_ne!(Stream::take(7, 60), Stream::take(8, 60));
    }

    #[test]
    fn prefix_does_not_depend_on_length() {
        assert_eq!(Stream::take(3, 20), Stream::take(3, 50)[..20].to_vec());
    }

    #[test]
    fn blocks_keep_their_shares_and_points_come_from_the_menus() {
        let reqs = Stream::take(11, 100);
        assert_eq!(reqs[0].kind, Kind::Fresh);
        for block in reqs.chunks(10) {
            let count = |k| block.iter().filter(|r| r.kind == k).count();
            assert_eq!(
                (count(Kind::Fresh), count(Kind::Repeat), count(Kind::Extend)),
                (4, 4, 2)
            );
        }
        for r in &reqs {
            assert_eq!(r.variants[0], ("main".to_string(), CfgPatch::default()));
            for (_, p) in &r.variants[1..] {
                let on_menu = match (p.sb, p.rob) {
                    (Some(v), None) => SB_MENU.contains(&v),
                    (None, Some(v)) => ROB_MENU.contains(&v),
                    _ => false,
                };
                assert!(on_menu, "{}", r.describe());
            }
            let mut labels: Vec<&String> = r.variants.iter().map(|(l, _)| l).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), r.variants.len(), "{}", r.describe());
            assert_eq!(r.kernels.len(), 2);
            let of = r.of.map(|o| &reqs[o]);
            match r.kind {
                Kind::Fresh => assert_eq!(r.variants.len(), 1 + POINTS),
                Kind::Repeat => {
                    let of = of.unwrap();
                    assert!(r.index < REPEAT_LAG || of.index + REPEAT_LAG <= r.index);
                    assert_eq!((&r.kernels, &r.variants), (&of.kernels, &of.variants));
                }
                Kind::Extend => {
                    let of = of.unwrap();
                    assert_eq!(of.kind, Kind::Fresh);
                    assert_eq!(r.kernels, of.kernels);
                    assert_eq!(r.variants[..1 + POINTS], of.variants[..]);
                    assert_eq!(r.variants.len(), 1 + POINTS + EXTRA);
                }
            }
        }
    }

    #[test]
    fn the_first_21_fresh_kernels_cover_the_suite() {
        let mut seen: Vec<&str> = Vec::new();
        for r in Stream::take(5, 200)
            .iter()
            .filter(|r| r.kind == Kind::Fresh)
        {
            seen.extend(&r.kernels);
        }
        seen.truncate(21);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 21);
    }

    #[test]
    fn every_seed_makes_the_same_sweeps() {
        let sweeps = |seed| -> Vec<(Kind, Vec<&str>, Vec<String>)> {
            let mut v: Vec<_> = Stream::take(seed, 100)
                .into_iter()
                .filter(|r| r.kind != Kind::Repeat)
                .map(|r| {
                    (
                        r.kind,
                        r.kernels,
                        r.variants.into_iter().map(|(l, _)| l).collect(),
                    )
                })
                .collect();
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        assert_eq!(sweeps(1), sweeps(2));
    }
}
