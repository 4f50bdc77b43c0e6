//! Canonical scenario bytes and the content-address digest.
//!
//! The serving layer (`bd-service`) stores run outcomes keyed by *what was
//! run*: the graph, the [`ScenarioSpec`], and the engine knobs. JSON is the
//! wrong key material — field order, whitespace, and float formatting all
//! vary between presentations of the same scenario — so this module defines
//! a **canonical byte serialization** written straight from the typed
//! fields in a fixed order, and hashes it with a hand-rolled FNV-1a into a
//! 128-bit [`SpecDigest`].
//!
//! ## Digest definition (`bdsd1`)
//!
//! The byte stream is, in order (all integers little-endian `u64`, strings
//! length-prefixed UTF-8, enum variants encoded by their stable name):
//!
//! 1. magic `"bdsd1"`;
//! 2. section `G`: node count, then each node's degree and `(neighbor,
//!    far-port)` pairs in port order — the full port-labeled adjacency;
//! 3. section `S`: algorithm name, `num_robots`, `num_byzantine`,
//!    adversary name, placement name, start config (tag + payload), seed,
//!    `allow_overload`;
//! 4. section `E`: `max_rounds`, `record_trace`, the constant byte `1`,
//!    `ff_overshoot` (the fault-injection knob — a sabotaged engine must
//!    never content-address like the correct one). The constant stands
//!    where the engine's former fast-forward switch was written, on in
//!    every stored digest, so those digests still match.
//!
//! The digest is two independent 64-bit FNV-1a passes over that stream
//! (the second from a perturbed offset basis), rendered as 32 hex digits.
//! FNV is not collision-resistant against an *adversary*; it is used here
//! strictly for content addressing of trusted inputs, where the relevant
//! failure mode is accidental collision (~2⁻¹²⁸ per pair).
//!
//! Because the bytes are produced from the deserialized struct — never
//! from a JSON presentation — the digest is invariant under JSON field
//! re-ordering and re-serialization by construction; the `canon` test
//! suite pins this with proptests, plus distinctness across a
//! `{algorithm × adversary × n × k × seed}` matrix.

use crate::runner::{ScenarioSpec, StartConfig};
use bd_graphs::PortGraph;
use bd_runtime::EngineConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Perturbation of the offset basis for the second, independent stream
/// (the golden-ratio gamma — any odd constant distinct from zero works).
const STREAM2_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// A hand-rolled FNV-1a 64-bit hasher over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the standard offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// A hasher at a custom offset basis (the second digest stream).
    pub(crate) fn with_basis(basis: u64) -> Self {
        Fnv64(basis)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// The 128-bit content address of one scenario: two independent FNV-1a
/// streams over the canonical bytes. Displayed (and stored) as 32 lowercase
/// hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpecDigest(pub u64, pub u64);

impl SpecDigest {
    /// Digest an arbitrary canonical byte stream.
    pub fn of_bytes(bytes: &[u8]) -> SpecDigest {
        let mut h1 = Fnv64::new();
        let mut h2 = Fnv64::with_basis(FNV_OFFSET ^ STREAM2_TWEAK);
        h1.write(bytes);
        h2.write(bytes);
        SpecDigest(h1.finish(), h2.finish())
    }

    /// Parse the 32-hex-digit rendering back (the store's on-disk key).
    pub fn parse(s: &str) -> Option<SpecDigest> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(SpecDigest(hi, lo))
    }
}

impl fmt::Display for SpecDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Canonical byte-stream writer: fixed-width little-endian integers,
/// length-prefixed strings, single-byte tags.
#[derive(Debug, Default)]
struct Canon(Vec<u8>);

impl Canon {
    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }
}

fn write_graph(c: &mut Canon, graph: &PortGraph) {
    c.tag(b'G');
    c.usize(graph.n());
    for v in graph.nodes() {
        c.usize(graph.degree(v));
        for p in 0..graph.degree(v) {
            let (u, q) = graph.neighbor(v, p);
            c.usize(u);
            c.usize(q);
        }
    }
}

fn write_spec(c: &mut Canon, spec: &ScenarioSpec) {
    c.tag(b'S');
    // Enum variants are written by name (the serde rendering), so the
    // digest survives enum reordering in source and matches the stored
    // spec JSON a human reads next to it.
    c.str(&format!("{:?}", spec.algo));
    c.usize(spec.num_robots);
    c.usize(spec.num_byzantine);
    c.str(&format!("{:?}", spec.adversary));
    c.str(&format!("{:?}", spec.placement));
    match &spec.starts {
        StartConfig::Gathered(node) => {
            c.tag(0);
            c.usize(*node);
        }
        StartConfig::RandomArbitrary => c.tag(1),
        StartConfig::Explicit(nodes) => {
            c.tag(2);
            c.usize(nodes.len());
            for &node in nodes {
                c.usize(node);
            }
        }
    }
    c.u64(spec.seed);
    c.bool(spec.allow_overload);
}

fn write_engine(c: &mut Canon, cfg: &EngineConfig) {
    c.tag(b'E');
    c.u64(cfg.max_rounds);
    c.bool(cfg.record_trace);
    // The engine's former fast-forward switch, always on: every stored
    // `bdsd1` digest was computed with this byte, so writing it keeps them
    // valid and cached journals hitting.
    c.bool(true);
    c.u64(cfg.ff_overshoot);
}

/// The canonical byte serialization of one scenario (see the module docs
/// for the exact layout). Exposed so tests can pin the stream itself, not
/// just the hash.
pub fn canonical_bytes(graph: &PortGraph, spec: &ScenarioSpec, cfg: &EngineConfig) -> Vec<u8> {
    let mut c = Canon::default();
    c.0.extend_from_slice(b"bdsd1");
    write_graph(&mut c, graph);
    write_spec(&mut c, spec);
    write_engine(&mut c, cfg);
    c.0
}

/// The content address of running `spec` on `graph` under `cfg`.
pub fn scenario_digest(graph: &PortGraph, spec: &ScenarioSpec, cfg: &EngineConfig) -> SpecDigest {
    SpecDigest::of_bytes(&canonical_bytes(graph, spec, cfg))
}

/// The canonical `G` section of one graph, precomputed once and reused
/// across many spec digests on that graph. Serializing the adjacency is
/// `O(n + m)` — by far the largest part of the stream — so batch layers
/// hash it once per graph instead of once per cell.
#[derive(Debug, Clone)]
pub struct GraphCanon(Vec<u8>);

impl GraphCanon {
    /// Precompute the canonical bytes of `graph`'s adjacency.
    pub fn new(graph: &PortGraph) -> Self {
        let mut c = Canon::default();
        write_graph(&mut c, graph);
        GraphCanon(c.0)
    }
}

/// [`scenario_digest`] over a precomputed [`GraphCanon`]: produces the
/// identical digest (the byte stream is the same by construction; the
/// conformance test pins it).
pub fn scenario_digest_with(
    graph: &GraphCanon,
    spec: &ScenarioSpec,
    cfg: &EngineConfig,
) -> SpecDigest {
    let mut c = Canon(Vec::with_capacity(5 + graph.0.len() + 96));
    c.0.extend_from_slice(b"bdsd1");
    c.0.extend_from_slice(&graph.0);
    write_spec(&mut c, spec);
    write_engine(&mut c, cfg);
    SpecDigest::of_bytes(&c.0)
}

/// A 64-bit content digest of a port-labeled graph alone (the `G` section
/// of the canonical stream). [`crate::BatchPlanner`] keys its sessions by
/// this, so a *clone* of an already-queued graph — a different `Arc`, same
/// adjacency — lands in the same session instead of silently forking a
/// second one.
pub fn graph_digest(graph: &PortGraph) -> u64 {
    let mut c = Canon::default();
    write_graph(&mut c, graph);
    let mut h = Fnv64::new();
    h.write(&c.0);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversaries::AdversaryKind;
    use crate::runner::Algorithm;
    use bd_graphs::generators::erdos_renyi_connected;

    fn spec(g: &PortGraph) -> ScenarioSpec {
        ScenarioSpec::gathered(Algorithm::GatheredThirdTh4, g, 0)
            .with_byzantine(1, AdversaryKind::Squatter)
            .with_seed(7)
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn digest_display_parse_round_trip() {
        let g = erdos_renyi_connected(9, 0.4, 11).unwrap();
        let d = scenario_digest(&g, &spec(&g), &EngineConfig::default());
        let s = d.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(SpecDigest::parse(&s), Some(d));
        assert_eq!(SpecDigest::parse("xyz"), None);
        assert_eq!(SpecDigest::parse(&s[..31]), None);
    }

    #[test]
    fn digest_separates_every_field() {
        let g = erdos_renyi_connected(9, 0.4, 11).unwrap();
        let base = spec(&g);
        let cfg = EngineConfig::default();
        let d0 = scenario_digest(&g, &base, &cfg);
        // Each single-field perturbation must move the digest.
        let variants = [
            base.clone().with_seed(8),
            base.clone().with_robots(10),
            base.clone().with_byzantine(2, AdversaryKind::Squatter),
            base.clone().with_byzantine(1, AdversaryKind::Wanderer),
            base.clone().with_algorithm(Algorithm::GatheredHalfTh3),
            base.clone().overloaded(),
        ];
        for v in &variants {
            assert_ne!(scenario_digest(&g, v, &cfg), d0, "{v:?}");
        }
        // Graph content and engine knobs are key material too.
        let g2 = erdos_renyi_connected(9, 0.4, 12).unwrap();
        assert_ne!(scenario_digest(&g2, &base, &cfg), d0);
        assert_ne!(
            scenario_digest(&g, &base, &EngineConfig::default().with_ff_overshoot(1)),
            d0,
            "a fault-injected engine must not share the correct engine's address"
        );
    }

    /// Stored results are keyed by `bdsd1` digests: one fixed spec's
    /// digest under the default config must never move.
    #[test]
    fn default_config_digest_is_pinned() {
        let g = erdos_renyi_connected(9, 0.4, 11).unwrap();
        let d = scenario_digest(&g, &spec(&g), &EngineConfig::default());
        assert_eq!(d.to_string(), "8060e16d434493697a6e6ba013b5a398");
    }

    #[test]
    fn precomputed_graph_canon_digests_identically() {
        let g = erdos_renyi_connected(12, 0.4, 3).unwrap();
        let cfg = EngineConfig::default();
        let canon = GraphCanon::new(&g);
        for seed in 0..5 {
            let s = spec(&g).with_seed(seed);
            assert_eq!(
                scenario_digest_with(&canon, &s, &cfg),
                scenario_digest(&g, &s, &cfg)
            );
        }
    }

    #[test]
    fn graph_digest_is_content_not_identity() {
        let g = erdos_renyi_connected(12, 0.4, 3).unwrap();
        let clone = g.clone();
        assert_eq!(graph_digest(&g), graph_digest(&clone));
        let other = erdos_renyi_connected(12, 0.4, 4).unwrap();
        assert_ne!(graph_digest(&g), graph_digest(&other));
    }
}
