//! D4M-style associative arrays.
//!
//! The paper stores the GreyNoise honeyfarm observations — string source
//! IPs against string metadata columns — in D4M associative arrays
//! (`A_t('1.1.1.1', '2.2.2.2') = '3'`), and converts reduced GraphBLAS
//! results into the same representation to correlate the two data sets.
//!
//! An associative array is a sparse matrix whose rows and columns are
//! indexed by *sorted string keys* instead of integers, closed under the
//! usual set-algebraic operations:
//!
//! * sub-array selection by key set, prefix, or range ([`Assoc::rows`],
//!   [`Assoc::cols`], [`Assoc::rows_with_prefix`]),
//! * element-wise intersection/union combine ([`Assoc::and_then`],
//!   [`Assoc::or_else`]),
//! * transpose, and
//! * row-key set algebra across arrays ([`keys::KeySet`]), which is the
//!   operation behind every correlation number in the paper: *"what
//!   fraction of CAIDA sources also appear in the GreyNoise rows?"*
//!
//! ```
//! use obscor_assoc::Assoc;
//!
//! let gn = Assoc::from_triples_last(vec![
//!     ("1.2.3.4".into(), "class".into(), "scanner".to_string()),
//!     ("1.2.3.4".into(), "first_seen".into(), "2020-06".to_string()),
//!     ("9.9.9.9".into(), "class".into(), "benign".to_string()),
//! ]);
//! assert_eq!(gn.get("1.2.3.4", "class"), Some(&"scanner".to_string()));
//! assert_eq!(gn.n_rows(), 2);
//! ```

pub mod array;
pub mod bitset;
pub mod convert;
pub mod io;
pub mod keys;

pub use array::Assoc;
pub use bitset::{BitSet, MonthMatrix};
pub use keys::KeySet;

/// Associative array with `f64` values (the D4M numeric convention).
pub type NumAssoc = Assoc<f64>;
/// Associative array with string values (the D4M metadata convention).
pub type StrAssoc = Assoc<String>;
