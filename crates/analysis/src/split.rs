//! Splittability proofs (`SplitProof`, W003).
//!
//! A dispatch is *splittable along dimension `d`* when the NDRange can
//! be cut between work-groups along `d` and the pieces run on different
//! devices with no cross-piece communication: no work-item on one side
//! of any cut writes a global location a work-item on the other side
//! reads or writes. (Private and `local` arrays are exempt — they are
//! per-item / per-group, and cuts are group-aligned.)
//!
//! For every pair of accesses to the same written global buffer the
//! prover seeks one of three witnesses:
//!
//! 1. **Structure identity** — some subscript position carries the
//!    *same* affine form in both accesses, and that form's per-item
//!    content is exactly one symbol of dimension `d` (`get_global_id(d)`
//!    — or `get_group_id(d)`, the reduction shape). Two items on
//!    opposite sides of a cut then provably hit different rows.
//! 2. **Interval disjointness** — the existing E002 machinery proves
//!    the two location sets never overlap for any item pair.
//! 3. **Matching pins** — both accesses are guarded by
//!    `get_global_id(d) == k` with the same `k`: both only happen in
//!    one slice, which a cut never separates from itself.
//!
//! Each witness is sought twice. Leaning on the host facts routed into
//! the kernel ([`Ranges::Routed`]) it decides the classification, as a
//! co-execution scheduler needs it: for the dispatches the analysed host
//! makes, across group-aligned cuts. Leaning on nothing but the language
//! ([`Ranges::Any`]: no worksize, work-group or buffer extent, no
//! inactive-dimension exemption, no `get_group_id` identity) it decides
//! [`DimProof::unconditional`]: the same verdict for *every* ND-range and
//! between any two work-items that differ in `get_global_id(d)` — the
//! form the second consumer needs, the kernel engine's strip mode, which
//! meets the kernel source without the host (ARCHITECTURE §15).
//!
//! A dimension whose witnesses include a `get_group_id` identity is
//! classified [`DimClass::Reduction`]: cross-group writes are disjoint,
//! but the output is a per-group combine slot, so a splitting scheduler
//! must also split the combine. A pair with no witness blocks the
//! dimension ([`DimClass::Blocked`]) and — in proofs mode — yields a
//! W003 naming the offending subscript pair.

use crate::kernel::{Access, Affine, KernelCheck, Ranges, Sym, Target};
use ensemble_lang::diag::{codes, Diagnostic};
use ensemble_lang::proof::{DimClass, DimProof, SplitProof};

/// How a pair of accesses was proven safe along one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Witness {
    /// Structure identity through `get_global_id(d)`.
    Gid(usize),
    /// Structure identity through `get_group_id(d)` (reduction shape).
    Grp(usize),
    /// Location sets provably disjoint outright.
    Disjoint,
    /// Both accesses pinned to the same slice along `d`.
    Pinned,
}

/// Compute the split proof for one walked kernel, plus the W003
/// diagnostics for blocked dimensions (emitted only in proofs mode).
pub(crate) fn prove(check: &KernelCheck) -> (SplitProof, Vec<Diagnostic>) {
    let ndims = if check.facts.ws_known {
        check.facts.ws_len.unwrap_or(3).clamp(1, 3) as usize
    } else {
        3
    };

    // Global buffer fields with at least one write.
    let mut fields: Vec<String> = Vec::new();
    for a in &check.accesses {
        if let Target::Global(f) = &a.target {
            if a.is_write && !fields.contains(f) {
                fields.push(f.clone());
            }
        }
    }

    let mut dims = Vec::new();
    let mut diags = Vec::new();
    for d in 0..ndims {
        if !check.facts.active(d) {
            dims.push(DimProof {
                dim: d,
                class: DimClass::Inactive,
                evidence: format!("worksize extent along dimension {d} is at most 1"),
                unconditional: false,
            });
            continue;
        }
        let mut any_grp = false;
        let mut unconditional = true;
        let mut blocked: Option<(&Access, &Access, String)> = None;
        let mut witness_note: Option<String> = None;
        'fields: for field in &fields {
            let writes: Vec<&Access> = check
                .accesses
                .iter()
                .filter(|a| a.is_write && a.target == Target::Global(field.clone()))
                .collect();
            let all: Vec<&Access> = check
                .accesses
                .iter()
                .filter(|a| a.target == Target::Global(field.clone()))
                .collect();
            for w in &writes {
                for a in &all {
                    // Unordered pairs with at least one write; include
                    // the write against itself (two items, same site).
                    if (a.is_write && !std::ptr::eq(*a, *w))
                        && writes.iter().position(|x| std::ptr::eq(*x, *a))
                            < writes.iter().position(|x| std::ptr::eq(*x, *w))
                    {
                        continue; // symmetric write pair already done
                    }
                    unconditional =
                        unconditional && pair_witness(check, w, a, d as u8, Ranges::Any).is_some();
                    match pair_witness(check, w, a, d as u8, Ranges::Routed) {
                        Some(Witness::Grp(p)) => {
                            any_grp = true;
                            witness_note.get_or_insert_with(|| {
                                format!(
                                    "write `{}`: subscript {} is a per-group combine slot",
                                    check.render_access(w),
                                    p + 1
                                )
                            });
                        }
                        Some(Witness::Gid(p)) => {
                            witness_note.get_or_insert_with(|| {
                                format!(
                                    "write `{}`: subscript {} varies 1:1 with gid{d}",
                                    check.render_access(w),
                                    p + 1
                                )
                            });
                        }
                        Some(_) => {}
                        None => {
                            blocked = Some((w, a, field.clone()));
                            break 'fields;
                        }
                    }
                }
            }
        }
        match blocked {
            Some((w, a, field)) => {
                let wr = check.render_access(w);
                let ar = check.render_access(a);
                let name = check.target_name(&Target::Global(field));
                let evidence = format!(
                    "write `{wr}` and {} `{ar}` may touch the same element of `{name}` \
                     across a cut along dimension {d}",
                    if a.is_write { "write" } else { "read" },
                );
                diags.push(
                    Diagnostic::warning(
                        codes::SPLIT_UNPROVEN,
                        w.span,
                        format!(
                            "kernel `{}`: dimension {d} is not provably splittable — {evidence}",
                            check.kernel_name
                        ),
                    )
                    .with_note(a.span, format!("the conflicting access `{ar}` is here"))
                    .with_help(format!(
                        "index `{name}` by get_global_id({d}) in a shared subscript \
                         position, or guard both accesses to the same gid{d} slice"
                    )),
                );
                dims.push(DimProof {
                    dim: d,
                    class: DimClass::Blocked,
                    evidence,
                    unconditional: false,
                });
            }
            None if fields.is_empty() => dims.push(DimProof {
                dim: d,
                class: DimClass::Splittable,
                evidence: "no global buffer is written".to_string(),
                unconditional: true,
            }),
            None => {
                let class = if any_grp {
                    DimClass::Reduction
                } else {
                    DimClass::Splittable
                };
                let mut evidence = witness_note.unwrap_or_else(|| {
                    format!("all write-involving pairs provably disjoint along gid{d}")
                });
                if unconditional {
                    evidence.push_str(
                        "; holds between any two items for every ND-range, \
                         while inner subscripts stay inside their rows",
                    );
                }
                dims.push(DimProof {
                    dim: d,
                    class,
                    evidence,
                    unconditional,
                });
            }
        }
    }

    (
        SplitProof {
            kernel: check.kernel_name.clone(),
            ndims,
            dims,
        },
        diags,
    )
}

/// Seek a safety witness for the pair `{w, a}` (at least one write)
/// along dimension `d`, leaning on `ranges` only. Under [`Ranges::Any`]
/// a witness separates any two *items* that differ in `get_global_id(d)`,
/// so a group identity does not count.
fn pair_witness(
    check: &KernelCheck,
    w: &Access,
    a: &Access,
    d: u8,
    ranges: Ranges,
) -> Option<Witness> {
    // (1) Structure identity in some shared subscript position.
    for (p, (wi, ai)) in w.idxs.iter().zip(&a.idxs).enumerate() {
        let (Some(wi), Some(ai)) = (wi, ai) else {
            continue;
        };
        if wi != ai {
            continue;
        }
        match per_item_witness(check, wi, d, ranges) {
            Some(Witness::Gid(_)) => return Some(Witness::Gid(p)),
            Some(Witness::Grp(_)) if ranges == Ranges::Routed => return Some(Witness::Grp(p)),
            _ => {}
        }
    }
    // (2) Outright interval disjointness (all item pairs).
    if check.disjoint_in(w, a, ranges) {
        return Some(Witness::Disjoint);
    }
    // (3) Both pinned to the same slice along `d`.
    let wp = w.gid_pinned.iter().find(|&&(pd, _)| pd == d as usize);
    let ap = a.gid_pinned.iter().find(|&&(pd, _)| pd == d as usize);
    if let (Some(&(_, v1)), Some(&(_, v2))) = (wp, ap) {
        if v1 == v2 {
            return Some(Witness::Pinned);
        }
    }
    None
}

/// Does this affine form distinguish items across a group-aligned cut
/// along `d`? Its per-item content must be exactly one symbol of
/// dimension `d` — `Gid(d)` or `Grp(d)` — with everything else uniform
/// or provably zero (per-item symbols of dimensions the routed facts
/// show inactive — an exemption [`Ranges::Any`] does not grant).
fn per_item_witness(check: &KernelCheck, idx: &Affine, d: u8, ranges: Ranges) -> Option<Witness> {
    let mut found: Option<Witness> = None;
    for (&s, &c) in &idx.terms {
        if s.is_uniform() || c == 0 {
            continue;
        }
        match s {
            Sym::Gid(e) if e == d => {
                if found.is_some() {
                    return None;
                }
                found = Some(Witness::Gid(0));
            }
            Sym::Grp(e) if e == d => {
                if found.is_some() {
                    return None;
                }
                found = Some(Witness::Grp(0));
            }
            Sym::Gid(e) | Sym::Lid(e) | Sym::Grp(e)
                if ranges == Ranges::Routed && !check.facts.active(e as usize) => {}
            _ => return None,
        }
    }
    found
}
