//! ND-range descriptions: global and local work sizes (§2.2).

use crate::error::{ClError, ClResult};

/// Global/local work sizes for a kernel dispatch.
///
/// As in OpenCL, the local size must evenly divide the global size in every
/// dimension; validation happens at enqueue time against the target device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    /// Number of meaningful dimensions (1–3).
    pub dims: u8,
    /// Global work size per dimension (unused dimensions are 1).
    pub global: [usize; 3],
    /// Local work size per dimension (unused dimensions are 1).
    pub local: [usize; 3],
}

impl NdRange {
    /// One-dimensional range.
    pub fn d1(global: usize, local: usize) -> NdRange {
        NdRange {
            dims: 1,
            global: [global, 1, 1],
            local: [local, 1, 1],
        }
    }

    /// Two-dimensional range.
    pub fn d2(global: [usize; 2], local: [usize; 2]) -> NdRange {
        NdRange {
            dims: 2,
            global: [global[0], global[1], 1],
            local: [local[0], local[1], 1],
        }
    }

    /// Three-dimensional range.
    pub fn d3(global: [usize; 3], local: [usize; 3]) -> NdRange {
        NdRange {
            dims: 3,
            global,
            local,
        }
    }

    /// Total number of work-items.
    pub fn total_items(&self) -> usize {
        self.global[0] * self.global[1] * self.global[2]
    }

    /// Work-items per work-group.
    pub fn group_size(&self) -> usize {
        self.local[0] * self.local[1] * self.local[2]
    }

    /// Number of work-groups.
    pub fn num_groups(&self) -> usize {
        self.total_items() / self.group_size().max(1)
    }

    /// Validate against a device's limits, mirroring the checks behind
    /// `CL_INVALID_WORK_GROUP_SIZE`.
    pub fn validate(&self, max_work_group_size: usize) -> ClResult<()> {
        for d in 0..3 {
            if self.global[d] == 0 || self.local[d] == 0 {
                return Err(ClError::InvalidWorkGroupSize(format!(
                    "dimension {d} has zero size (global {:?}, local {:?})",
                    self.global, self.local
                )));
            }
            if !self.global[d].is_multiple_of(self.local[d]) {
                return Err(ClError::InvalidWorkGroupSize(format!(
                    "local size {} does not divide global size {} in dimension {d}",
                    self.local[d], self.global[d]
                )));
            }
        }
        if self.group_size() > max_work_group_size {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "work-group of {} items exceeds the device limit of {max_work_group_size}",
                self.group_size()
            )));
        }
        Ok(())
    }

    /// Cut this range into up to `parts` group-aligned sub-ranges along
    /// `dim` — the execution shape a `SplitProof` licenses (see
    /// `crates/analysis`): each piece keeps whole work-groups, so
    /// work-group-local communication never crosses a piece boundary,
    /// and a partition-safe dimension guarantees no *global* traffic
    /// crosses one either.
    ///
    /// Groups are distributed as evenly as possible; fewer pieces come
    /// back when there are fewer groups than `parts`. Each piece records
    /// the global-id offset a scheduler must add when launching it.
    ///
    /// Errors mirror enqueue-time validation: `dim` must be within
    /// `dims`, `parts` non-zero, and the local size must divide the
    /// global size along `dim`.
    pub fn split(&self, dim: usize, parts: usize) -> ClResult<Vec<SubRange>> {
        if dim >= usize::from(self.dims) {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "cannot split dimension {dim} of a {}-dimensional range",
                self.dims
            )));
        }
        if parts == 0 {
            return Err(ClError::InvalidWorkGroupSize(
                "cannot split into zero parts".to_string(),
            ));
        }
        let local = self.local[dim].max(1);
        if !self.global[dim].is_multiple_of(local) {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "local size {local} does not divide global size {} in dimension {dim}",
                self.global[dim]
            )));
        }
        let groups = self.global[dim] / local;
        let parts = parts.min(groups).max(1);
        let base = groups / parts;
        let extra = groups % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start_group = 0;
        for p in 0..parts {
            let take = base + usize::from(p < extra);
            let mut range = *self;
            range.global[dim] = take * local;
            let mut offset = [0usize; 3];
            offset[dim] = start_group * local;
            out.push(SubRange { range, offset });
            start_group += take;
        }
        Ok(out)
    }

}

/// One piece of a split dispatch: a smaller [`NdRange`] plus the
/// global-id offset of its first work-item in the original range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubRange {
    /// The piece's own range (whole work-groups of the parent).
    pub range: NdRange,
    /// Global-id offset per dimension (non-zero only along the split
    /// dimension).
    pub offset: [usize; 3],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_counts() {
        let nd = NdRange::d1(1024, 64);
        assert_eq!(nd.total_items(), 1024);
        assert_eq!(nd.group_size(), 64);
        assert_eq!(nd.num_groups(), 16);
        assert!(nd.validate(256).is_ok());
    }

    #[test]
    fn d2_counts() {
        let nd = NdRange::d2([64, 64], [8, 8]);
        assert_eq!(nd.total_items(), 4096);
        assert_eq!(nd.num_groups(), 64);
    }

    #[test]
    fn indivisible_local_size_is_rejected() {
        let nd = NdRange::d1(100, 8);
        assert!(nd.validate(256).is_err());
    }

    #[test]
    fn oversized_group_is_rejected() {
        let nd = NdRange::d2([64, 64], [32, 32]);
        assert!(nd.validate(256).is_err());
        assert!(nd.validate(1024).is_ok());
    }

    #[test]
    fn zero_size_is_rejected() {
        assert!(NdRange::d1(0, 1).validate(256).is_err());
    }

    #[test]
    fn split_is_group_aligned_and_covers() {
        let nd = NdRange::d1(1024, 64); // 16 groups
        let pieces = nd.split(0, 3).unwrap();
        assert_eq!(pieces.len(), 3);
        // Even-as-possible: 6, 5, 5 groups.
        assert_eq!(
            pieces.iter().map(|p| p.range.global[0]).collect::<Vec<_>>(),
            vec![6 * 64, 5 * 64, 5 * 64]
        );
        // Contiguous cover with group-aligned offsets.
        let mut expect = 0;
        for p in &pieces {
            assert_eq!(p.offset[0], expect);
            assert_eq!(p.offset[0] % 64, 0);
            assert_eq!(p.range.local, nd.local);
            expect += p.range.global[0];
        }
        assert_eq!(expect, 1024);
    }

    #[test]
    fn split_clamps_to_group_count() {
        let nd = NdRange::d2([8, 64], [4, 8]); // 2 groups along dim 0
        let pieces = nd.split(0, 5).unwrap();
        assert_eq!(pieces.len(), 2);
        // Untouched dimensions keep their full extent.
        assert!(pieces.iter().all(|p| p.range.global[1] == 64));
        assert_eq!(pieces[1].offset, [4, 0, 0]);
    }

    #[test]
    fn split_rejects_bad_inputs() {
        let nd = NdRange::d1(1024, 64);
        assert!(nd.split(1, 2).is_err()); // dim out of range
        assert!(nd.split(0, 0).is_err()); // zero parts
        assert!(NdRange::d1(100, 8).split(0, 2).is_err()); // indivisible
    }
}
