//! The accumulator form of [`Plf::minimum`], with bound dominance in front.

use crate::approx::EPS_COST;
use crate::plf::Plf;

/// Minimum of an optional accumulator and a new function — the
/// `cost[u] = min{cost[u], Compound(…)}` pattern of Algo. 3 lines 6-9 and
/// Algo. 6 lines 16-19, with `None` playing the role of `+∞`.
///
/// The two functions' value bounds decide first. A candidate whose minimum
/// is ≥ the accumulator's maximum is dropped — ties keep the accumulator, as
/// [`Plf::minimum`] keeps `self`. One whose maximum is below the
/// accumulator's minimum by more than [`EPS_COST`] (the tolerance inside
/// which `minimum`'s witness pass still prefers `self`) replaces it. Either
/// way the result is one of the two inputs unchanged and equals `minimum`'s
/// in value and in witness; everything else is merged.
pub fn min_into(acc: &mut Option<Plf>, f: Plf) {
    let Some(a) = acc else {
        *acc = Some(f);
        return;
    };
    let (f_min, f_max) = f.value_bounds();
    let (a_min, a_max) = a.value_bounds();
    if f_min >= a_max {
        return;
    }
    *a = if f_max < a_min - EPS_COST {
        f
    } else {
        a.minimum(&f)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_into_from_infinity() {
        let mut acc = None;
        min_into(&mut acc, Plf::constant(5.0));
        assert_eq!(acc.as_ref().unwrap().eval(0.0), 5.0);
        min_into(&mut acc, Plf::constant(3.0));
        assert_eq!(acc.as_ref().unwrap().eval(0.0), 3.0);
        min_into(&mut acc, Plf::constant(9.0));
        assert_eq!(acc.as_ref().unwrap().eval(0.0), 3.0);
    }
}
