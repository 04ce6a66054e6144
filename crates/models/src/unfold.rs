//! The one round unfolding of the synchronous, asynchronous and
//! semi-synchronous models.
//!
//! One round of each of these models turns a simplex of views into a
//! union of pseudospheres indexed by failure cases: a single member
//! asynchronously (Lemma 11), one per crash set `K` synchronously
//! (Lemma 14), one per `K` and failure pattern `F` semi-synchronously
//! (Lemma 19). A model supplies only that member list ([`Round`]);
//! [`unfold`] iterates it `r` times, emitting each last-round member
//! whole and recursing on every facet of the members before it. The
//! output goes to a [`Sink`]: the interned builder of the explicit
//! complex, or the symbolic union the Mayer–Vietoris prover reads, so
//! both come from the same walk in the same order.

use ps_core::{ProcessId, Pseudosphere, PseudosphereUnion};
use ps_topology::{for_each_product, InternedBuilder, Label, Simplex};

use crate::view::View;

/// One member of a round: the slots of its pseudosphere (per survivor
/// in process order, that survivor's sorted end-of-round views) and the
/// crashes it spends.
pub(crate) type Member<V> = (Vec<Vec<V>>, usize);

/// A model whose round is a union of pseudospheres.
pub(crate) trait Round<V> {
    /// The members of one round on `state` with `budget` crashes left,
    /// in the model's order, built one at a time.
    fn members(&self, state: &Simplex<V>, budget: usize) -> impl Iterator<Item = Member<V>>;
}

/// Where [`unfold`] puts what it emits.
pub(crate) trait Sink<V> {
    /// A zero-round facet: the state itself.
    fn facet(&mut self, state: &Simplex<V>);
    /// A last-round member, as its slots.
    fn pseudosphere(&mut self, slots: Vec<Vec<V>>);
}

impl<V: Label> Sink<V> for InternedBuilder<V> {
    fn facet(&mut self, state: &Simplex<V>) {
        self.add_facet(state);
    }

    fn pseudosphere(&mut self, slots: Vec<Vec<V>>) {
        self.add_pseudosphere(slots);
    }
}

impl<I: Label> Sink<View<I>> for PseudosphereUnion<ProcessId, View<I>> {
    fn facet(&mut self, state: &Simplex<View<I>>) {
        self.pseudosphere(state.vertices().iter().map(|v| vec![v.clone()]).collect());
    }

    fn pseudosphere(&mut self, slots: Vec<Vec<View<I>>>) {
        if slots.is_empty() || slots.iter().any(Vec::is_empty) {
            return;
        }
        let base = Simplex::new(slots.iter().map(|slot| slot[0].process()).collect());
        let families = slots
            .into_iter()
            .map(|slot| (slot[0].process(), slot.into_iter().collect()))
            .collect();
        self.push(Pseudosphere::new(base, families).expect("families cover base"));
    }
}

/// Emits the `rounds`-round complex on `state` with `budget` crashes
/// left into `out`.
pub(crate) fn unfold<V: Label>(
    model: &impl Round<V>,
    state: &Simplex<V>,
    budget: usize,
    rounds: usize,
    out: &mut impl Sink<V>,
) {
    if state.is_empty() {
        return;
    }
    if rounds == 0 {
        out.facet(state);
        return;
    }
    for (slots, spent) in model.members(state, budget) {
        if rounds == 1 {
            out.pseudosphere(slots);
        } else {
            for_each_product(&slots, |facet| {
                let next = Simplex::new(facet.iter().map(|v| (*v).clone()).collect());
                unfold(model, &next, budget - spent, rounds - 1, out);
            });
        }
    }
}
