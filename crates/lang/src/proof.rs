//! Typed proof objects produced by the static analysis suite.
//!
//! The analysis crate (`crates/analysis`) does more than lint: per
//! kernel dispatch site it *proves* facts a scheduler can consume
//! without runtime checks — which NDRange dimensions a dispatch can be
//! partitioned along ([`SplitProof`]), which consecutive enqueues on a
//! queue form a batchable chain and whether adjacent pairs could even
//! be merged ([`FusionProof`]), and which channel payloads are never
//! mutated after being sent ([`SendProof`], the copy-on-write
//! elimination precondition).
//!
//! The proofs live here, in the language crate, because they are part
//! of the compile output: a [`ProofSet`] rides on the
//! [`CompiledModule`](crate::CompiledModule) and a per-kernel
//! [`KernelProof`] on each [`KernelPlan`](crate::KernelPlan), so the VM
//! can surface them as `proof_splittable` / `proof_fusable` trace
//! instants at dispatch time. Everything serialises to JSON by hand
//! (the workspace has no JSON library) for `ens-lint --proofs --json`.

/// How one NDRange dimension of a kernel dispatch may be treated by a
/// partitioning scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimClass {
    /// Cutting the dispatch between work-groups along this dimension is
    /// proven safe: no work-item on one side of any cut reads or writes
    /// a global location another side writes.
    Splittable,
    /// A reduction dimension: writes are group-combine slots
    /// (`get_group_id` under a `get_local_id == k` pin). Cross-group
    /// write sets are disjoint, but the output has per-group extent —
    /// a splitting scheduler must also split the combine step.
    Reduction,
    /// Not provably splittable: some write may be read or written
    /// across a cut (or the subscripts defeat the affine model).
    Blocked,
    /// The dimension has a proven extent of at most one work-item (or
    /// is beyond the declared worksize rank): no cut exists.
    Inactive,
}

impl DimClass {
    /// Stable lower-case name used in JSON output and tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            DimClass::Splittable => "splittable",
            DimClass::Reduction => "reduction",
            DimClass::Blocked => "blocked",
            DimClass::Inactive => "inactive",
        }
    }
}

/// The verdict for one dimension of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DimProof {
    /// Dimension index (0-based, as in `get_global_id(d)`).
    pub dim: usize,
    /// The classification.
    pub class: DimClass,
    /// Human-readable witness: which subscript proves the claim, or
    /// which subscript pair blocks it.
    pub evidence: String,
}

/// Per-dispatch-site splittability proof: one verdict per NDRange
/// dimension of the kernel's declared worksize.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitProof {
    /// Kernel actor name.
    pub kernel: String,
    /// Number of worksize dimensions the verdicts cover.
    pub ndims: usize,
    /// Per-dimension verdicts, in dimension order.
    pub dims: Vec<DimProof>,
}

impl SplitProof {
    /// Dimensions proven partition-safe.
    pub fn splittable_dims(&self) -> Vec<usize> {
        self.dims
            .iter()
            .filter(|d| d.class == DimClass::Splittable)
            .map(|d| d.dim)
            .collect()
    }

    /// The classification of dimension `d`, if covered.
    pub fn class_of(&self, d: usize) -> Option<DimClass> {
        self.dims.iter().find(|p| p.dim == d).map(|p| p.class)
    }
}

/// A data hazard between two consecutive dispatches on one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hazard {
    /// Read-after-write: the later dispatch reads what the earlier wrote.
    Raw,
    /// Write-after-read: the later dispatch overwrites what the earlier read.
    War,
    /// Write-after-write: both dispatches write the same locations.
    Waw,
}

impl Hazard {
    /// The conventional three-letter name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Hazard::Raw => "RAW",
            Hazard::War => "WAR",
            Hazard::Waw => "WAW",
        }
    }
}

/// The verdict for one adjacent pair of dispatches in a fusion chain.
///
/// A pair with a hazard can still be *batched* (enqueued back-to-back
/// on an in-order queue with no host round-trip — launch overhead
/// amortises) but must not be *merged* into one kernel whose work-items
/// interleave.
#[derive(Debug, Clone, PartialEq)]
pub struct PairProof {
    /// Kernel name of the earlier dispatch.
    pub from: String,
    /// Kernel name of the later dispatch.
    pub to: String,
    /// No hazard on any shared buffer: the two dispatches' work-items
    /// may interleave freely.
    pub mergeable: bool,
    /// The blocking hazard, when not mergeable: kind and buffer field.
    pub hazard: Option<(Hazard, String)>,
    /// The offending (or witnessing) subscript pair, rendered.
    pub detail: String,
}

/// A chain of consecutive kernel enqueues with no intervening host
/// readback or payload mutation — the unit the batching scheduler
/// consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionProof {
    /// The dispatching host actor.
    pub host: String,
    /// Kernel names of the chained dispatch sites, in program order
    /// (one loop iteration when `loops` is set).
    pub sites: Vec<String>,
    /// The chain closes over a loop back-edge (no barrier anywhere in
    /// the loop body): iteration `n`'s last dispatch feeds iteration
    /// `n+1`'s first.
    pub loops: bool,
    /// Iteration count when the loop bound is a known constant.
    pub iterations: Option<i64>,
    /// What ended the chain (e.g. a non-`mov` readback receive), when
    /// something did.
    pub barrier: Option<String>,
    /// Hazard verdicts for adjacent pairs (including the wrap-around
    /// pair when `loops` is set).
    pub pairs: Vec<PairProof>,
}

impl FusionProof {
    /// Dispatches per chain traversal (one loop iteration).
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the chain has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Total dispatches the chain covers when the loop trip-count is
    /// known (`sites × iterations`), else the per-iteration length.
    pub fn effective_len(&self) -> i64 {
        match (self.loops, self.iterations) {
            (true, Some(n)) => self.sites.len() as i64 * n,
            _ => self.sites.len() as i64,
        }
    }
}

/// Effect proof for one host-side payload send: whether the payload is
/// provably unmutated afterwards (so a copy-on-write send never needs
/// the copy — ROADMAP item 3's precondition).
#[derive(Debug, Clone, PartialEq)]
pub struct SendProof {
    /// The sending host actor.
    pub actor: String,
    /// Variable holding the sent payload.
    pub payload: String,
    /// Source line of the send.
    pub line: u32,
    /// Proven unmutated after the send (through any alias).
    pub unmutated: bool,
}

/// Everything the proof passes established about one module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProofSet {
    /// One splittability proof per recognised kernel actor.
    pub splits: Vec<SplitProof>,
    /// Dispatch chains per host actor.
    pub fusion: Vec<FusionProof>,
    /// Payload-send effect proofs.
    pub sends: Vec<SendProof>,
}

impl ProofSet {
    /// The split proof for a kernel actor, if one was computed.
    pub fn split_for(&self, kernel: &str) -> Option<&SplitProof> {
        self.splits.iter().find(|s| s.kernel == kernel)
    }

    /// Hand-rolled JSON rendering (the workspace has no JSON library).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"splits\":[");
        for (i, s) in self.splits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"kernel\":{},\"ndims\":{},\"dims\":[",
                json_string(&s.kernel),
                s.ndims
            ));
            for (j, d) in s.dims.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"dim\":{},\"class\":{},\"evidence\":{}}}",
                    d.dim,
                    json_string(d.class.as_str()),
                    json_string(&d.evidence)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"fusion\":[");
        for (i, f) in self.fusion.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"host\":{},\"sites\":[{}],\"loops\":{},\"iterations\":{},\"barrier\":{},\"pairs\":[",
                json_string(&f.host),
                f.sites
                    .iter()
                    .map(|s| json_string(s))
                    .collect::<Vec<_>>()
                    .join(","),
                f.loops,
                f.iterations
                    .map_or("null".to_string(), |n| n.to_string()),
                f.barrier
                    .as_deref()
                    .map_or("null".to_string(), json_string),
            ));
            for (j, p) in f.pairs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let (hz, buf) = match &p.hazard {
                    Some((h, b)) => (json_string(h.as_str()), json_string(b)),
                    None => ("null".to_string(), "null".to_string()),
                };
                out.push_str(&format!(
                    "{{\"from\":{},\"to\":{},\"mergeable\":{},\"hazard\":{hz},\"buffer\":{buf},\"detail\":{}}}",
                    json_string(&p.from),
                    json_string(&p.to),
                    p.mergeable,
                    json_string(&p.detail)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"sends\":[");
        for (i, s) in self.sends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"actor\":{},\"payload\":{},\"line\":{},\"unmutated\":{}}}",
                json_string(&s.actor),
                json_string(&s.payload),
                s.line,
                s.unmutated
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The proof summary one kernel dispatch carries at runtime (stored on
/// the [`KernelPlan`](crate::KernelPlan)).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProof {
    /// The splittability proof for this kernel.
    pub split: SplitProof,
    /// This kernel's place in a dispatch chain, when it is part of one
    /// with at least two sites per traversal (or a looping chain).
    pub chain: Option<ChainRole>,
}

/// Where one kernel sits in a fusion chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRole {
    /// The dispatching host actor.
    pub host: String,
    /// Sites per chain traversal.
    pub len: usize,
    /// This kernel's 0-based position in the chain.
    pub index: usize,
    /// The pair arriving at this site (from the previous site, or the
    /// wrap-around pair for site 0 of a looping chain) is mergeable.
    pub mergeable_with_prev: bool,
    /// The chain closes over a loop back-edge (copied from the owning
    /// [`FusionProof::loops`]): consecutive traversals chain too, so a
    /// dispatch batcher may keep one batch open across iterations.
    pub loops: bool,
}

/// Escape and quote a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid_and_greppable() {
        let set = ProofSet {
            splits: vec![SplitProof {
                kernel: "Multiply".into(),
                ndims: 2,
                dims: vec![
                    DimProof {
                        dim: 0,
                        class: DimClass::Splittable,
                        evidence: "write `d.result[y][x]` varies with gid0".into(),
                    },
                    DimProof {
                        dim: 1,
                        class: DimClass::Reduction,
                        evidence: "group combine".into(),
                    },
                ],
            }],
            fusion: vec![FusionProof {
                host: "Controller".into(),
                sites: vec!["Diag".into(), "Col".into()],
                loops: true,
                iterations: Some(4),
                barrier: None,
                pairs: vec![PairProof {
                    from: "Diag".into(),
                    to: "Col".into(),
                    mergeable: false,
                    hazard: Some((Hazard::Raw, "piv".into())),
                    detail: "write piv[0] vs read piv[0]".into(),
                }],
            }],
            sends: vec![SendProof {
                actor: "Dispatch".into(),
                payload: "d".into(),
                line: 12,
                unmutated: true,
            }],
        };
        let j = set.to_json();
        assert!(j.contains("\"class\":\"splittable\",\"evidence\""));
        assert!(j.contains("\"hazard\":\"RAW\""));
        assert!(j.contains("\"unmutated\":true"));
        assert!(j.contains("\"iterations\":4"));
        assert_eq!(set.fusion[0].effective_len(), 8);
        assert_eq!(set.splits[0].splittable_dims(), vec![0]);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
