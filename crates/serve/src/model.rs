//! The shared, immutable prepared model a server pool serves.

use std::sync::Arc;

use cheetah_bfv::{BfvParams, Result};
use cheetah_core::ptune::ChainPlan;
use cheetah_core::Schedule;
use cheetah_nn::{Network, Weights};
use cheetah_protocol::PreparedLayers;

/// Everything the serving layer shares across concurrent sessions: the
/// protocol crate's prepared layers plus the nonlinear bundle output
/// shapes (so per-round mask drawing never re-derives shapes).
///
/// Immutability contract: every field is written once in
/// [`PreparedModel::from_layers`] and only ever read afterwards — all
/// methods take `&self`, there is no interior mutability, and the struct
/// is shared behind an `Arc`. That is what makes the pool's session
/// sweeps lock-free on the model side.
pub struct PreparedModel {
    layers: Arc<PreparedLayers>,
    /// `bundle_shapes[k]`: output shape of linear layer `k`'s nonlinear
    /// bundle — the shape of the next round's client-side mask.
    bundle_shapes: Vec<Vec<usize>>,
}

impl PreparedModel {
    /// Wraps already-prepared layers for any number of concurrent
    /// sessions, dry-running each nonlinear bundle on zeros to record its
    /// output shape.
    ///
    /// # Errors
    ///
    /// Residual networks are rejected here (at prepare time) rather than
    /// at the first session.
    pub fn from_layers(layers: Arc<PreparedLayers>) -> Result<Arc<Self>> {
        let bundle_shapes = (0..layers.linear_count())
            .map(|k| layers.bundle_output_shape(k))
            .collect::<Result<Vec<_>>>()?;
        Ok(Arc::new(Self {
            layers,
            bundle_shapes,
        }))
    }

    /// Prepares a network once: packs every linear layer's weights and
    /// fixes the rotation/level plans ([`PreparedLayers::new`]), then
    /// [`PreparedModel::from_layers`]. `_schedule` is ignored — no layer
    /// has a schedule to choose — and stays only because the frozen
    /// `bench_e2e/run.rs` driver passes one.
    ///
    /// # Errors
    ///
    /// Propagates preparation errors from [`PreparedLayers::new`] and
    /// [`PreparedModel::from_layers`].
    pub fn prepare(
        net: &Network,
        weights: &Weights,
        params: BfvParams,
        _schedule: Schedule,
    ) -> Result<Arc<Self>> {
        Self::from_layers(Arc::new(PreparedLayers::new(net, weights, params)?))
    }

    /// Prepares a network from a solver-produced [`ChainPlan`] (HE-PTune
    /// v2): the plan's chain drives preparation and its per-layer levels
    /// cap the runtime level planner — see
    /// [`PreparedLayers::from_chain_plan`].
    ///
    /// # Errors
    ///
    /// As [`PreparedModel::prepare`], plus a layer-count mismatch between
    /// the plan and the network.
    pub fn prepare_with_plan(
        net: &Network,
        weights: &Weights,
        plan: &ChainPlan,
    ) -> Result<Arc<Self>> {
        Self::from_layers(Arc::new(PreparedLayers::from_chain_plan(
            net, weights, plan,
        )?))
    }

    /// The shared prepared layers (plans, packed plaintexts, evaluator).
    pub fn layers(&self) -> &Arc<PreparedLayers> {
        &self.layers
    }

    /// The parameter set every client of this model must match.
    pub fn params(&self) -> &BfvParams {
        self.layers.params()
    }

    /// Output shape of linear layer `k`'s nonlinear bundle.
    pub fn bundle_shape(&self, k: usize) -> &[usize] {
        &self.bundle_shapes[k]
    }

    /// Number of prepared linear layers.
    pub fn linear_count(&self) -> usize {
        self.layers.linear_count()
    }

    /// The rotation steps a client must bring Galois keys for.
    pub fn required_steps(&self) -> &[i64] {
        self.layers.required_steps()
    }

    /// FNV-1a fingerprint of the parameter chain; every wire message is
    /// validated against it.
    pub fn fingerprint(&self) -> u64 {
        self.layers.fingerprint()
    }
}
