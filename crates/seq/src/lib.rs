//! # ringdeploy-seq — distance-sequence toolkit
//!
//! Sequence machinery used by the uniform-deployment algorithms of
//! *"Uniform deployment of mobile agents in asynchronous rings"*
//! (Shibata, Mega, Ooshita, Kakugawa, Masuzawa; PODC 2016 / JPDC 2018).
//!
//! The paper describes the positions of `k` agents on an `n`-node
//! unidirectional ring by a **distance sequence** `D = (d_0, …, d_{k-1})`,
//! where `d_j` is the hop distance from the `j`-th agent (in the forward
//! direction) to the `(j+1)`-th. All three algorithms in the paper reduce
//! agreement on reference ("base") nodes to computations on rotations and
//! periods of such sequences:
//!
//! * **Algorithm 1 & the relaxed algorithm** pick the lexicographically
//!   minimal rotation of `D` ([`min_rotation`], Booth's algorithm) and use
//!   its starting offset as the agent's `rank`.
//! * The **symmetry degree** `l` of an initial configuration
//!   ([`symmetry_degree`]) is `k / x` for the minimal `0 < x < k` with
//!   `shift(D, x) = D`, or `1` if no such `x` exists (aperiodic ring).
//! * The **estimating phase** of the relaxed algorithm watches the stream
//!   of observed inter-token distances until it sees a four-fold repetition
//!   ([`fourfold_repetition`]).
//!
//! # Example
//!
//! ```
//! use ringdeploy_seq::{DistanceSeq, symmetry_degree};
//!
//! // Fig. 1(b) of the paper: distance sequence (1,2,3,1,2,3) has symmetry
//! // degree 2 because it is a 2-fold repetition of the aperiodic (1,2,3).
//! let d = DistanceSeq::new(vec![1, 2, 3, 1, 2, 3]).unwrap();
//! assert_eq!(symmetry_degree(d.as_slice()), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod period;
mod rotation;
mod symmetry;

pub use distance::{DistanceSeq, DistanceSeqError};
pub use period::{
    cyclic_period, fourfold_repetition, is_periodic_linear, repeat, smallest_period,
    starts_with_fourfold_repetition,
};
pub use rotation::{
    canonical_rotation, compare_rotations, min_rotation, min_rotation_elim, min_rotation_naive,
    min_rotation_with, shift, shifted_eq,
};
pub use symmetry::{fundamental, is_cyclically_periodic, symmetry_degree};
