//! The `opencl struct` settings protocol (§6.1.1, Listing 3).
//!
//! A kernel actor's single channel conveys a settings struct containing the
//! local and global worksizes plus dynamically-created in/out channels for
//! the data. The host builds the struct, sends it, then sends the data on
//! the input channel and waits on the output channel.

use ensemble_actors::{In, Out};
use oclsim::{ClError, ClResult, NdRange};

/// The settings struct: worksize/groupsize arrays plus the data channels,
/// exactly the shape the `opencl struct` keyword enforces in Ensemble.
///
/// Contains an `In` endpoint (not `Clone`), so settings travel via
/// [`ensemble_actors::Out::send_moved`].
#[derive(Debug)]
pub struct Settings<TIn, TOut> {
    /// Global work size per dimension (`integer [] worksize`).
    pub worksize: Vec<usize>,
    /// Local work size per dimension (`integer [] groupsize`).
    pub groupsize: Vec<usize>,
    /// Channel the kernel actor receives its data on (`in data_t input`).
    pub input: In<TIn>,
    /// Channel the kernel actor sends results on (`out ... output`).
    pub output: Out<TOut>,
    /// Extra scalar kernel arguments appended after the shape dims —
    /// per-dispatch values such as the LUD step index.
    pub extra_args: Vec<i32>,
    /// Extra `float` kernel arguments appended after `extra_args` (e.g. the
    /// document-ranking threshold).
    pub extra_f32: Vec<f32>,
}

/// Convert worksize/groupsize arrays into an [`NdRange`] (shared by
/// [`Settings::nd_range`] and the kernel actors).
pub fn nd_from(worksize: &[usize], groupsize: &[usize]) -> ClResult<NdRange> {
    if worksize.is_empty() || worksize.len() > 3 || worksize.len() != groupsize.len() {
        return Err(ClError::InvalidWorkGroupSize(format!(
            "worksize {worksize:?} / groupsize {groupsize:?} must have matching length 1-3",
        )));
    }
    let mut global = [1usize; 3];
    let mut local = [1usize; 3];
    for (d, (&g, &l)) in worksize.iter().zip(groupsize).enumerate() {
        global[d] = g;
        local[d] = l;
    }
    Ok(NdRange {
        dims: worksize.len() as u8,
        global,
        local,
    })
}

impl<TIn, TOut> Settings<TIn, TOut> {
    /// Build settings with empty `extra_args`.
    pub fn new(
        worksize: Vec<usize>,
        groupsize: Vec<usize>,
        input: In<TIn>,
        output: Out<TOut>,
    ) -> Settings<TIn, TOut> {
        Settings {
            worksize,
            groupsize,
            input,
            output,
            extra_args: Vec::new(),
            extra_f32: Vec::new(),
        }
    }

    /// Convert the worksize/groupsize arrays into an [`NdRange`].
    pub fn nd_range(&self) -> ClResult<NdRange> {
        nd_from(&self.worksize, &self.groupsize)
    }

    /// The launch geometry and scalars, as the protocol takes them.
    pub(crate) fn launch(&self) -> crate::protocol::Launch<'_> {
        crate::protocol::Launch {
            worksize: &self.worksize,
            groupsize: &self.groupsize,
            ints: &self.extra_args,
            floats: &self.extra_f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_actors::{In, Out};

    #[test]
    fn nd_range_from_arrays() {
        let s: Settings<(), ()> =
            Settings::new(vec![1024, 1024], vec![16, 16], In::new(), Out::new());
        let nd = s.nd_range().unwrap();
        assert_eq!(nd.dims, 2);
        assert_eq!(nd.global, [1024, 1024, 1]);
        assert_eq!(nd.local, [16, 16, 1]);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let s: Settings<(), ()> = Settings::new(vec![1024], vec![16, 16], In::new(), Out::new());
        assert!(s.nd_range().is_err());
    }

    #[test]
    fn empty_worksize_rejected() {
        let s: Settings<(), ()> = Settings::new(vec![], vec![], In::new(), Out::new());
        assert!(s.nd_range().is_err());
    }

    #[test]
    fn settings_travel_through_channels() {
        let (req_out, req_in) = ensemble_actors::buffered_channel::<Settings<i32, i32>>(1);
        let s = Settings::new(vec![8], vec![4], In::new(), Out::new());
        req_out.send_moved(s).unwrap();
        let got = req_in.receive().unwrap();
        assert_eq!(got.worksize, vec![8]);
    }
}
