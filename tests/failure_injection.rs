//! Failure injection: malformed inputs must be rejected loudly at the right
//! layer, never silently mis-answered.

use td_road::graph::{GraphError, TdGraph};
use td_road::plf::{Plf, PlfError};

#[test]
fn malformed_profiles_are_rejected_at_construction() {
    // NaN, unsorted, duplicate-time and negative-cost point lists.
    assert!(matches!(
        Plf::from_pairs(&[(0.0, f64::NAN)]),
        Err(PlfError::NotFinite(0))
    ));
    assert!(matches!(
        Plf::from_pairs(&[(10.0, 1.0), (5.0, 2.0)]),
        Err(PlfError::NotIncreasing(1))
    ));
    assert!(matches!(
        Plf::from_pairs(&[(5.0, 1.0), (5.0, 2.0)]),
        Err(PlfError::NotIncreasing(1))
    ));
    assert!(matches!(
        Plf::from_pairs(&[(0.0, -0.5)]),
        Err(PlfError::Negative(0))
    ));
    assert!(matches!(Plf::new(vec![]), Err(PlfError::Empty)));
}

#[test]
fn non_fifo_weights_are_rejected_by_the_graph() {
    let mut g = TdGraph::with_vertices(2);
    // Slope -2: a later departure overtakes an earlier one.
    let overtaking = Plf::from_pairs(&[(0.0, 100.0), (10.0, 80.0)]).unwrap();
    assert!(!overtaking.is_fifo());
    assert_eq!(
        g.add_edge(0, 1, overtaking.clone()),
        Err(GraphError::NotFifo(0, 1))
    );
    // Same check on in-place weight updates.
    g.add_edge(0, 1, Plf::constant(5.0)).unwrap();
    assert_eq!(g.set_weight(0, overtaking), Err(GraphError::NotFifo(0, 1)));
}

#[test]
fn structural_errors_are_rejected() {
    let mut g = TdGraph::with_vertices(2);
    assert_eq!(
        g.add_edge(0, 7, Plf::constant(1.0)),
        Err(GraphError::VertexOutOfRange(7))
    );
    assert_eq!(
        g.add_edge(1, 1, Plf::constant(1.0)),
        Err(GraphError::SelfLoop(1))
    );
    g.add_edge(0, 1, Plf::constant(1.0)).unwrap();
    assert_eq!(
        g.add_edge(0, 1, Plf::constant(2.0)),
        Err(GraphError::DuplicateEdge(0, 1))
    );
    assert_eq!(
        g.set_weight(9, Plf::constant(1.0)),
        Err(GraphError::NoSuchEdge(9))
    );
}

#[test]
fn profile_search_handles_zero_cost_cycles() {
    // A zero-cost 2-cycle is the classic non-termination hazard for
    // label-correcting searches. With exact minimum-merging it converges
    // (re-relaxing the cycle yields no strict improvement), and a pop-count
    // guard inside `profile_search` turns any residual non-convergence into
    // a loud panic instead of a hang. This test documents the converging
    // behaviour and exact answers.
    let mut g = TdGraph::with_vertices(3);
    g.add_edge(0, 1, Plf::constant(0.0)).unwrap();
    g.add_edge(1, 0, Plf::constant(0.0)).unwrap();
    g.add_edge(1, 2, Plf::constant(1.0)).unwrap();
    let prof = td_road::dijkstra::profile_search(&g, 0);
    assert_eq!(prof.cost(1, 0.0), Some(0.0));
    assert_eq!(prof.cost(2, 0.0), Some(1.0));
}

#[test]
fn invalid_queries_surface_as_typed_errors_not_panics() {
    use td_road::prelude::*;

    let mut g = TdGraph::with_vertices(3);
    g.add_edge(0, 1, Plf::constant(30.0)).unwrap();
    g.add_edge(1, 2, Plf::constant(40.0)).unwrap();
    let index = build_index(g, Backend::Dijkstra, &IndexConfig::default());

    // Out-of-range endpoints, non-finite and negative departure times all
    // land in QueryError::InvalidQuery with a message naming the culprit.
    for (s, d, t, needle) in [
        (3, 0, 0.0, "source"),
        (0, 9, 0.0, "destination"),
        (0, 2, f64::NAN, "not finite"),
        (0, 2, f64::INFINITY, "not finite"),
        (0, 2, -5.0, "negative"),
    ] {
        match index.query_cost_bounded_in(
            &mut index.new_scratch(),
            s,
            d,
            t,
            &QueryBudget::UNLIMITED,
        ) {
            Err(QueryError::InvalidQuery(why)) => assert!(
                why.contains(needle),
                "s={s} d={d} t={t}: message {why:?} does not mention {needle:?}"
            ),
            other => panic!("s={s} d={d} t={t}: expected InvalidQuery, got {other:?}"),
        }
    }

    // A valid query on the same index still answers exactly.
    assert_eq!(
        index
            .query_cost_bounded_in(&mut index.new_scratch(), 0, 2, 0.0, &QueryBudget::UNLIMITED)
            .unwrap(),
        BoundedAnswer::Exact(Some(70.0))
    );
}
