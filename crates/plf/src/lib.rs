#![forbid(unsafe_code)]
//! # td-plf — piecewise-linear travel-cost functions
//!
//! This crate implements the function algebra that underpins every algorithm in
//! *"Querying Shortest Path on Large Time-Dependent Road Networks with Shortcuts"*
//! (Gong, Zeng, Chen — ICDE 2024, arXiv:2303.03720).
//!
//! A travel-cost function `w(t)` maps a **departure time** to a **travel cost**
//! (both in seconds here, though the algebra is unit-agnostic). Following Eq. (1)
//! of the paper, a function is represented by a sorted list of interpolation
//! points `(t_1, c_1), …, (t_k, c_k)`:
//!
//! * for `t ≤ t_1` the value is `c_1`,
//! * for `t ≥ t_k` the value is `c_k`,
//! * in between, the value is linearly interpolated.
//!
//! The two central operators are:
//!
//! * [`Plf::compound`] — the paper's `Compound()` (Def. 2):
//!   `Compound(f, g)(t) = f(t) + g(t + f(t))`, i.e. travel `f` first, then `g`
//!   departing at the arrival time. The *bridge* vertex is recorded as the
//!   segment witness, which is what Def. 2 means by "the intermediate vertex is
//!   also recorded in the function".
//! * [`Plf::minimum`] — the pointwise minimum of two functions, keeping the
//!   winning side's witnesses.
//!
//! Both operators are **closed and exact** on this representation: the result of
//! an operation, evaluated anywhere on the real line (with the clamped
//! extrapolation above), equals the mathematical composition/minimum of the
//! clamped inputs. No domain bookkeeping is required by callers.
//!
//! ## FIFO
//!
//! Like the paper (and [8, 29] before it), the shortest-path algorithms assume
//! the FIFO (non-overtaking) property: the arrival function `t + w(t)` is
//! non-decreasing, equivalently every segment slope is ≥ −1. [`Plf::is_fifo`]
//! checks this; `compound` and `minimum` preserve it. The operators remain
//! *correct as function algebra* even on non-FIFO inputs.
//!
//! ## Witnesses and path recovery
//!
//! Every segment carries a witness ([`Via`]): the intermediate vertex through
//! which the cost on that segment is achieved, or [`NO_VIA`] for a direct edge.
//! Index structures built on this crate unfold witnesses recursively to produce
//! full shortest paths (see `td-core::paths`).

pub mod approx;
pub mod arena;
pub mod arrival;
pub mod batch;
pub mod compound;
pub mod minimum;
pub mod ops;
pub mod persist;
pub mod plf;
pub mod simplify;
pub mod view;
pub mod window;

pub use approx::{feq, fle, flt, EPS_COST, EPS_TIME};
pub use arena::{PlfArena, PlfId, PlfSlice, NO_PLF};
pub use batch::{eval_ids_at, eval_times_into};
pub use plf::{Plf, PlfError, Pt, Via, NO_VIA};
pub use view::PlfView;
pub use window::Windows;

/// The canonical time domain used by the paper's evaluation: one day, in seconds.
pub const DAY: f64 = 86_400.0;
