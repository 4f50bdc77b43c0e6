//! Trajectory pin: the exact outcome of a fixed set of small cells.
//!
//! Every other suite compares the fast engine against something derived
//! from the same controllers (the oracle engine, a second run, the row's
//! own phase schedule), so a controller refactor that changes what robots
//! do would pass them all. This table does not move with the code: it
//! records, per cell, the rounds, moves, messages, executed sub-rounds,
//! fast-forwarded rounds and final positions the code produced when the
//! pin was taken. A refactor meant to be trajectory-neutral must pass it
//! unedited; a change that alters trajectories on purpose re-records the
//! affected rows and says why.
//!
//! The cells cover every Table 1 row at small `n` on the benchmark graph
//! family, plus odd and `k ≠ n` rosters for the all-pairs rows (Theorems
//! 2–3). `k = 5` at `n = 8` schedules consecutive dummy pairing windows
//! for some robots, a case no `k = n` cell reaches.
//!
//! The last three rows pin the cells where the walks that need no
//! communication carry the most weight: eight concurrent `Find-Map`
//! walkers with no idle robot (Theorem 1 at `f = 0`), a crash-wrapped
//! honest controller walking the gather script (Theorem 5 under
//! `CrashMidway`), and ID-faking adversaries walking gather scripts at
//! `k > n` (Theorem 7).
//!
//! The three after them pin roaming adversaries whose bursts overlap the
//! map-finding windows while the honest robots wait: a `FakeSettler`
//! whose moves depend on its own round counter (Theorem 3), `Wanderer`s
//! beside Theorem 4's group runs, and `Wanderer`s at `k > n` beside
//! Theorem 5's.

use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::{Algorithm, ByzPlacement, ScenarioSpec};
use bd_dispersion::Session;
use bd_graphs::generators::asymmetric_gnp;
use AdversaryKind::*;
use Algorithm::*;

/// One pinned cell: the scenario (row, `n`, `k`, adversary, Byzantine
/// count `f` — `None` means the row's tolerance for `(n, k)` — and seed;
/// graph `asymmetric_gnp(n, seed)`, the row's evaluation start), then what
/// it must produce.
struct Pin {
    algo: Algorithm,
    n: usize,
    k: usize,
    adversary: AdversaryKind,
    f: Option<usize>,
    seed: u64,
    rounds: u64,
    total_moves: u64,
    max_moves_per_robot: u64,
    messages: u64,
    subrounds_executed: u64,
    rounds_skipped: u64,
    final_positions: &'static [usize],
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { algo: QuotientTh1, n: 8, k: 8, adversary: FakeSettler, f: None, seed: 1, rounds: 8240, total_moves: 8230, max_moves_per_robot: 8195, messages: 161, subrounds_executed: 8672, rounds_skipped: 0, final_positions: &[4, 5, 6, 4, 7, 1, 7, 4] },
    Pin { algo: ArbitraryHalfTh2, n: 6, k: 6, adversary: Wanderer, f: None, seed: 1, rounds: 24960, total_moves: 27607, max_moves_per_robot: 8185, messages: 11514, subrounds_executed: 15012, rounds_skipped: 16277, final_positions: &[0, 3, 4, 2, 5, 3] },
    Pin { algo: ArbitraryHalfTh2, n: 7, k: 7, adversary: TokenHijacker, f: None, seed: 2, rounds: 44433, total_moves: 43562, max_moves_per_robot: 9878, messages: 20909, subrounds_executed: 27553, rounds_skipped: 28751, final_positions: &[0, 5, 2, 3, 4, 1, 4] },
    Pin { algo: ArbitraryHalfTh2, n: 8, k: 5, adversary: CrashMidway, f: None, seed: 4, rounds: 58986, total_moves: 43739, max_moves_per_robot: 8877, messages: 688, subrounds_executed: 11621, rounds_skipped: 49270, final_positions: &[2, 1, 0, 4, 6] },
    Pin { algo: ArbitrarySqrtTh5, n: 9, k: 9, adversary: TokenHijacker, f: None, seed: 1, rounds: 29613, total_moves: 111165, max_moves_per_robot: 14161, messages: 5411, subrounds_executed: 22419, rounds_skipped: 12804, final_positions: &[0, 4, 4, 1, 2, 3, 5, 8, 6] },
    Pin { algo: GatheredHalfTh3, n: 6, k: 6, adversary: Wanderer, f: None, seed: 1, rounds: 22361, total_moves: 12049, max_moves_per_robot: 5592, messages: 11514, subrounds_executed: 12419, rounds_skipped: 16271, final_positions: &[0, 3, 4, 2, 5, 3] },
    Pin { algo: GatheredHalfTh3, n: 7, k: 7, adversary: MapLiar, f: None, seed: 3, rounds: 40309, total_moves: 2550, max_moves_per_robot: 512, messages: 3631, subrounds_executed: 3253, rounds_skipped: 38836, final_positions: &[0, 0, 1, 2, 4, 0, 5] },
    Pin { algo: GatheredHalfTh3, n: 8, k: 5, adversary: Silent, f: None, seed: 1, rounds: 50785, total_moves: 15279, max_moves_per_robot: 12697, messages: 684, subrounds_executed: 28955, rounds_skipped: 36499, final_positions: &[0, 4, 2, 5, 6] },
    Pin { algo: GatheredHalfTh3, n: 8, k: 7, adversary: TokenHijacker, f: None, seed: 2, rounds: 59241, total_moves: 19664, max_moves_per_robot: 7408, messages: 30739, subrounds_executed: 34225, rounds_skipped: 42320, final_positions: &[0, 5, 1, 3, 2, 7, 2] },
    Pin { algo: GatheredHalfTh3, n: 8, k: 16, adversary: MapLiar, f: None, seed: 3, rounds: 126889, total_moves: 34123, max_moves_per_robot: 2629, messages: 22834, subrounds_executed: 11665, rounds_skipped: 121440, final_positions: &[0, 0, 1, 0, 1, 0, 3, 3, 2, 2, 6, 6, 4, 4, 7, 0] },
    Pin { algo: GatheredHalfTh3, n: 9, k: 9, adversary: Crowd, f: None, seed: 2, rounds: 131261, total_moves: 10251, max_moves_per_robot: 1711, messages: 19326, subrounds_executed: 11955, rounds_skipped: 125517, final_positions: &[0, 0, 5, 1, 2, 0, 3, 6, 0] },
    Pin { algo: GatheredThirdTh4, n: 9, k: 9, adversary: TokenHijacker, f: None, seed: 1, rounds: 17939, total_moves: 7269, max_moves_per_robot: 2495, messages: 9727, subrounds_executed: 10475, rounds_skipped: 12935, final_positions: &[3, 4, 0, 4, 1, 2, 3, 5, 8] },
    Pin { algo: GatheredThirdTh4, n: 9, k: 12, adversary: MapLiar, f: None, seed: 2, rounds: 17939, total_moves: 4560, max_moves_per_robot: 458, messages: 2918, subrounds_executed: 2421, rounds_skipped: 17040, final_positions: &[0, 0, 0, 5, 5, 1, 1, 2, 2, 3, 3, 0] },
    Pin { algo: StrongArbitraryTh7, n: 8, k: 8, adversary: StrongSpoofer, f: None, seed: 1, rounds: 12440, total_moves: 66282, max_moves_per_robot: 8331, messages: 300, subrounds_executed: 8547, rounds_skipped: 4069, final_positions: &[0, 4, 5, 2, 6, 7, 0, 1] },
    Pin { algo: StrongGatheredTh6, n: 8, k: 8, adversary: StrongSpoofer, f: None, seed: 1, rounds: 4239, total_moves: 730, max_moves_per_robot: 137, messages: 300, subrounds_executed: 353, rounds_skipped: 4062, final_positions: &[0, 4, 5, 2, 6, 7, 0, 1] },
    Pin { algo: StrongGatheredTh6, n: 12, k: 16, adversary: Crowd, f: None, seed: 1, rounds: 13971, total_moves: 4360, max_moves_per_robot: 418, messages: 1772, subrounds_executed: 1043, rounds_skipped: 13449, final_positions: &[0, 4, 5, 0, 11, 2, 1, 7, 8, 6, 10, 3, 0, 4, 0, 9] },
    Pin { algo: QuotientTh1, n: 8, k: 8, adversary: Squatter, f: Some(0), seed: 2, rounds: 8240, total_moves: 65566, max_moves_per_robot: 8201, messages: 392, subrounds_executed: 8672, rounds_skipped: 0, final_positions: &[3, 1, 5, 0, 6, 2, 7, 4] },
    Pin { algo: ArbitrarySqrtTh5, n: 9, k: 9, adversary: CrashMidway, f: None, seed: 2, rounds: 29613, total_moves: 108985, max_moves_per_robot: 12126, messages: 955, subrounds_executed: 13930, rounds_skipped: 17049, final_positions: &[0, 0, 5, 1, 2, 3, 6, 7, 4] },
    Pin { algo: StrongArbitraryTh7, n: 8, k: 12, adversary: StrongSpoofer, f: None, seed: 2, rounds: 12440, total_moves: 99637, max_moves_per_robot: 8355, messages: 418, subrounds_executed: 8600, rounds_skipped: 4042, final_positions: &[0, 0, 5, 6, 1, 2, 3, 4, 7, 0, 5, 6] },
    Pin { algo: GatheredHalfTh3, n: 8, k: 8, adversary: FakeSettler, f: None, seed: 1, rounds: 59241, total_moves: 19165, max_moves_per_robot: 4939, messages: 45529, subrounds_executed: 33707, rounds_skipped: 42579, final_positions: &[0, 4, 2, 4, 5, 1, 5, 5] },
    Pin { algo: GatheredThirdTh4, n: 12, k: 12, adversary: Wanderer, f: None, seed: 1, rounds: 41927, total_moves: 38916, max_moves_per_robot: 10488, messages: 32985, subrounds_executed: 24157, rounds_skipped: 30232, final_positions: &[0, 4, 2, 2, 3, 1, 5, 7, 7, 6, 5, 8] },
    Pin { algo: ArbitrarySqrtTh5, n: 9, k: 12, adversary: Wanderer, f: None, seed: 3, rounds: 29613, total_moves: 148412, max_moves_per_robot: 16156, messages: 5580, subrounds_executed: 22342, rounds_skipped: 12921, final_positions: &[0, 0, 1, 1, 2, 4, 2, 4, 4, 5, 5, 8] },
];

fn spec_of(pin: &Pin, session: &Session) -> ScenarioSpec {
    let f = pin
        .f
        .unwrap_or_else(|| pin.algo.row().tolerance(pin.n, pin.k));
    ScenarioSpec::evaluation(pin.algo, session.graph())
        .with_robots(pin.k)
        .with_byzantine(f, pin.adversary)
        .with_placement(ByzPlacement::Random)
        .with_seed(pin.seed)
}

#[test]
fn trajectories_match_the_pinned_table() {
    let mut mismatches = Vec::new();
    for pin in PINS {
        let graph = asymmetric_gnp(pin.n, pin.seed).expect("bench graph");
        let session = Session::new(graph);
        let out = session.run(&spec_of(pin, &session)).expect("cell runs");
        assert!(
            out.dispersed,
            "{:?} n={} k={}: not dispersed",
            pin.algo, pin.n, pin.k
        );
        let m = &out.metrics;
        let got = (
            m.rounds,
            m.total_moves,
            m.max_moves_per_robot,
            m.messages,
            m.subrounds_executed,
            m.rounds_skipped,
            out.final_positions.as_slice(),
        );
        let want = (
            pin.rounds,
            pin.total_moves,
            pin.max_moves_per_robot,
            pin.messages,
            pin.subrounds_executed,
            pin.rounds_skipped,
            pin.final_positions,
        );
        if got != want {
            mismatches.push(format!(
                "    Pin {{ algo: {:?}, n: {}, k: {}, adversary: {:?}, f: {:?}, seed: {}, rounds: {}, total_moves: {}, max_moves_per_robot: {}, messages: {}, subrounds_executed: {}, rounds_skipped: {}, final_positions: &{:?} }},",
                pin.algo, pin.n, pin.k, pin.adversary, pin.f, pin.seed, got.0, got.1, got.2, got.3, got.4, got.5, got.6
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trajectories differ from the pin; measured rows:\n{}",
        mismatches.join("\n")
    );
}
