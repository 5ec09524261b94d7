//! Arena-based reverse-mode autodiff tape.
//!
//! Every differentiable op appends one node to the tape; node ids are handed
//! out as lightweight [`Var`]s. Because the arena is append-only, parents
//! always have smaller indices than children, so a single reverse scan of the
//! arena is a valid topological traversal for backpropagation — no explicit
//! graph sort is needed. This follows the "arena over `Rc<RefCell>` graph"
//! idiom for linked structures in Rust.
//!
//! The tape is also an *allocation* arena: backward closures are bump-
//! allocated into reusable byte chunks instead of one `Box` per node, node
//! and gradient tables are stashed thread-locally across tape lifetimes, and
//! every tensor buffer comes from [`crate::pool`]. After one warm-up step,
//! building + differentiating a tape performs zero heap allocations
//! (`DESIGN.md` §10).

use std::cell::RefCell;
use std::mem::MaybeUninit;

use crate::params::ParamId;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// that produced it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Raw node index on the owning tape.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Backward rule of one node: given the incoming gradient of the node it may
/// read any forward value from the tape and must accumulate gradients into
/// its parents via [`GradStore::accumulate`]. Stored as a raw fat pointer
/// into the tape's closure arena; the tape drops it in place on reset.
pub(crate) type BwdPtr = *mut (dyn Fn(&Tensor, &Tape, &mut GradStore) + 'static);

pub(crate) struct Node {
    pub(crate) value: Tensor,
    /// `None` marks a leaf (input, constant, or parameter).
    pub(crate) backward: Option<BwdPtr>,
    /// Set when the leaf mirrors a parameter from a `ParamStore`.
    pub(crate) param: Option<ParamId>,
}

/// Chunk size for the closure bump arena. One training step records a few
/// hundred closures of ≤ ~100 bytes each, so one chunk usually suffices.
const ARENA_CHUNK: usize = 64 * 1024;

/// How many retired tape/grad skeletons to keep per thread. Nested tapes
/// (gradcheck re-runs, eval inside training) rarely go deeper than this.
const MAX_STASH: usize = 4;

/// Bump allocator for backward closures.
///
/// Closures are placement-written into boxed byte chunks (stable addresses —
/// chunks are never reallocated, only appended) and dropped in place when the
/// tape resets. `reset` rewinds the bump cursor but keeps the chunks, so a
/// recycled tape records its next step without touching the allocator.
#[derive(Default)]
struct ClosureArena {
    chunks: Vec<Box<[MaybeUninit<u8>]>>,
    cur: usize,
    offset: usize,
}

impl ClosureArena {
    fn alloc<F>(&mut self, f: F) -> BwdPtr
    where
        F: Fn(&Tensor, &Tape, &mut GradStore) + 'static,
    {
        let size = std::mem::size_of::<F>();
        let align = std::mem::align_of::<F>();
        if size == 0 {
            // Zero-sized closures live at any aligned address.
            let p = std::ptr::NonNull::<F>::dangling().as_ptr();
            unsafe { p.write(f) };
            return p as BwdPtr;
        }
        loop {
            if let Some(chunk) = self.chunks.get_mut(self.cur) {
                // Alignment is computed from the chunk's real base address.
                let base = chunk.as_mut_ptr() as usize;
                let aligned = (base + self.offset + align - 1) & !(align - 1);
                let start = aligned - base;
                if start + size <= chunk.len() {
                    let p = unsafe { chunk.as_mut_ptr().add(start) } as *mut F;
                    unsafe { p.write(f) };
                    self.offset = start + size;
                    return p as BwdPtr;
                }
                self.cur += 1;
                self.offset = 0;
            } else {
                let len = ARENA_CHUNK.max(size + align);
                self.chunks
                    .push(vec![MaybeUninit::uninit(); len].into_boxed_slice());
                self.cur = self.chunks.len() - 1;
                self.offset = 0;
            }
        }
    }

    /// Rewinds the bump cursor, keeping the chunks for the next tape.
    /// Callers must have already dropped every closure in place.
    fn reset(&mut self) {
        self.cur = 0;
        self.offset = 0;
    }
}

thread_local! {
    /// Retired tape skeletons: empty node tables + closure arenas whose
    /// capacity survives across `Tape::new()`/drop cycles.
    static TAPE_STASH: RefCell<Vec<(Vec<Node>, ClosureArena)>> = const { RefCell::new(Vec::new()) };
    /// Retired gradient-store skeletons (node/param tables + scratch).
    #[allow(clippy::type_complexity)]
    static GRAD_STASH: RefCell<Vec<(Vec<Option<Tensor>>, Vec<Option<Tensor>>, Vec<f32>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The autodiff tape: an arena of nodes recording one forward pass.
///
/// A tape is built per forward pass and dropped afterwards; parameters live
/// in a [`crate::params::ParamStore`] and are copied onto the tape by
/// [`Tape::param`]. Dropping a tape recycles its node table, closure arena
/// and every node tensor, so per-step tapes are allocation-free at steady
/// state.
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    arena: ClosureArena,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape (recycled from this thread's stash when available).
    pub fn new() -> Self {
        let stashed = TAPE_STASH.with(|s| s.borrow_mut().pop());
        match stashed {
            Some((nodes, arena)) => Tape { nodes, arena },
            None => Tape {
                nodes: Vec::new(),
                arena: ClosureArena::default(),
            },
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Drops every closure in place and clears the node table (node tensors
    /// recycle through `Tensor::drop`).
    fn clear_nodes(&mut self) {
        for node in &mut self.nodes {
            if let Some(p) = node.backward.take() {
                unsafe { std::ptr::drop_in_place(p) };
            }
        }
        self.nodes.clear();
        self.arena.reset();
    }

    /// Records a node with no backward rule.
    pub(crate) fn push_value(&mut self, value: Tensor) -> Var {
        self.nodes.push(Node {
            value,
            backward: None,
            param: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a node with a backward rule (bump-allocated on the tape).
    pub(crate) fn push_bwd<F>(&mut self, value: Tensor, f: F) -> Var
    where
        F: Fn(&Tensor, &Tape, &mut GradStore) + 'static,
    {
        let ptr = self.arena.alloc(f);
        self.nodes.push(Node {
            value,
            backward: Some(ptr),
            param: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Attaches a backward rule to an already-recorded node. Used by ops
    /// whose closure must capture the output [`Var`] itself (softmax, tanh…).
    pub(crate) fn set_bwd<F>(&mut self, v: Var, f: F)
    where
        F: Fn(&Tensor, &Tape, &mut GradStore) + 'static,
    {
        let ptr = self.arena.alloc(f);
        let old = self.nodes[v.0].backward.replace(ptr);
        debug_assert!(old.is_none(), "node {} already had a backward rule", v.0);
    }

    /// Records a leaf whose gradient is retained after backward (an "input").
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push_value(value)
    }

    /// Records a constant; identical to a leaf, named for intent.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.leaf(value)
    }

    /// Copies a parameter onto the tape; its gradient lands in
    /// [`GradStore::param_grad`] after backward.
    pub fn param(&mut self, store: &crate::params::ParamStore, id: ParamId) -> Var {
        let v = self.push_value(store.get(id).clone());
        self.nodes[v.0].param = Some(id);
        v
    }

    /// Runs backpropagation from `loss` (normally a scalar), returning the
    /// gradient store. `num_params` sizes the per-parameter gradient table;
    /// pass `store.len()`.
    pub fn backward(&self, loss: Var, num_params: usize) -> GradStore {
        let mut grads = GradStore::new(self.nodes.len(), num_params);
        grads.accumulate(loss, Tensor::ones(*self.value(loss).shape()));
        for i in (0..=loss.0).rev() {
            let node = &self.nodes[i];
            match node.backward {
                Some(p) => {
                    // Interior node: consume its gradient and push it down.
                    if let Some(g) = grads.node_grads[i].take() {
                        let f = unsafe { &*p };
                        f(&g, self, &mut grads);
                    }
                }
                None => {
                    // Leaf: retain the gradient, mirroring params out.
                    if let (Some(pid), Some(g)) = (node.param, grads.node_grads[i].as_ref()) {
                        grads.accumulate_param(pid, g.clone());
                    }
                }
            }
        }
        grads
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        self.clear_nodes();
        let nodes = std::mem::take(&mut self.nodes);
        let arena = std::mem::take(&mut self.arena);
        let _ = TAPE_STASH.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < MAX_STASH {
                s.push((nodes, arena));
            }
        });
    }
}

/// Gradients produced by [`Tape::backward`].
///
/// Interior-node gradients are consumed during the reverse scan; leaf
/// gradients (inputs, constants, parameter copies) are retained and parameter
/// gradients are additionally aggregated per [`ParamId`] — the same parameter
/// may appear on the tape many times (e.g. a shared embedding table).
pub struct GradStore {
    pub(crate) node_grads: Vec<Option<Tensor>>,
    param_grads: Vec<Option<Tensor>>,
    /// Reused zeroed staging buffer for [`GradStore::accumulate_with`] when a
    /// slot already holds a gradient — backward rules then never allocate a
    /// fresh tensor per contribution.
    scratch: Vec<f32>,
}

impl GradStore {
    fn new(num_nodes: usize, num_params: usize) -> Self {
        let stashed = GRAD_STASH.with(|s| s.borrow_mut().pop());
        let (mut node_grads, mut param_grads, scratch) = stashed.unwrap_or_default();
        node_grads.resize_with(num_nodes, || None);
        param_grads.resize_with(num_params, || None);
        GradStore {
            node_grads,
            param_grads,
            scratch,
        }
    }

    /// An empty parameter-gradient table with no tape nodes. The
    /// data-parallel trainer builds one per optimizer step and merges the
    /// per-shard contributions into it through [`Self::add_param_grad`] in a
    /// fixed order, so the reduction tree is identical at every thread count.
    pub fn for_params(num_params: usize) -> Self {
        GradStore::new(0, num_params)
    }

    /// Adds a flat gradient contribution for parameter `id`. The first
    /// contribution copies the bits verbatim (not `0.0 + x`, which would
    /// flip `-0.0`); later contributions add elementwise in call order, so
    /// the caller controls the reduction order exactly.
    pub fn add_param_grad(&mut self, id: ParamId, shape: &Shape, data: &[f32]) {
        assert_eq!(shape.numel(), data.len(), "add_param_grad length mismatch");
        match &mut self.param_grads[id.index()] {
            Some(acc) => crate::simd::add_assign_slice(acc.data_mut(), data),
            slot @ None => {
                let mut buf = crate::pool::take(data.len());
                buf.extend_from_slice(data);
                *slot = Some(Tensor::new(*shape, buf));
            }
        }
    }

    /// Adds `g` into the gradient slot of `v`.
    pub fn accumulate(&mut self, v: Var, g: Tensor) {
        match &mut self.node_grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Adds `g` into the gradient slot of `v` without taking ownership:
    /// clones only when the slot is empty, otherwise accumulates directly.
    /// Bitwise-equivalent to `accumulate(v, g.clone())` minus the allocation.
    pub fn accumulate_in_place(&mut self, v: Var, g: &Tensor) {
        match &mut self.node_grads[v.0] {
            Some(acc) => acc.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Accumulates a gradient contribution of `shape` into `v`'s slot via a
    /// filler that *adds into* (or writes once per element of) a zeroed
    /// buffer — the natural contract of the `matmul_into*` kernels.
    ///
    /// First contribution: `fill` runs directly on the freshly allocated
    /// slot, so no temporary exists at all. Later contributions: `fill`
    /// runs on a reused scratch buffer which is then added elementwise —
    /// the same `compute-then-add` summation order as the
    /// allocate-a-`Tensor`-per-op path this replaces, keeping gradients
    /// bitwise identical while eliminating the per-op allocation.
    pub fn accumulate_with(&mut self, v: Var, shape: &Shape, fill: impl FnOnce(&mut [f32])) {
        match &mut self.node_grads[v.0] {
            Some(acc) => {
                debug_assert_eq!(
                    acc.shape(),
                    shape,
                    "accumulate_with shape mismatch on node {}",
                    v.0
                );
                let n = shape.numel();
                self.scratch.clear();
                self.scratch.resize(n, 0.0);
                fill(&mut self.scratch);
                crate::simd::add_assign_slice(acc.data_mut(), &self.scratch);
            }
            slot @ None => {
                let mut fresh = Tensor::zeros(*shape);
                fill(fresh.data_mut());
                *slot = Some(fresh);
            }
        }
    }

    fn accumulate_param(&mut self, id: ParamId, g: Tensor) {
        match &mut self.param_grads[id.index()] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Gradient of a retained leaf, if it received any.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.node_grads[v.0].as_ref()
    }

    /// Aggregated gradient of a parameter, if it participated in the loss.
    pub fn param_grad(&self, id: ParamId) -> Option<&Tensor> {
        self.param_grads[id.index()].as_ref()
    }

    /// Global L2 norm across all parameter gradients.
    pub fn global_param_norm(&self) -> f32 {
        self.param_grads
            .iter()
            .flatten()
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every parameter gradient in place (used by gradient clipping).
    pub fn scale_param_grads(&mut self, alpha: f32) {
        for g in self.param_grads.iter_mut().flatten() {
            g.scale_in_place(alpha);
        }
    }

    /// True when every produced gradient is finite.
    pub fn all_finite(&self) -> bool {
        self.node_grads.iter().flatten().all(Tensor::all_finite)
            && self.param_grads.iter().flatten().all(Tensor::all_finite)
    }
}

impl Drop for GradStore {
    fn drop(&mut self) {
        // Gradient tensors recycle through their own Drop; the emptied
        // tables and scratch go back to the stash for the next backward.
        self.node_grads.clear();
        self.param_grads.clear();
        let skeleton = (
            std::mem::take(&mut self.node_grads),
            std::mem::take(&mut self.param_grads),
            std::mem::take(&mut self.scratch),
        );
        let _ = GRAD_STASH.try_with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < MAX_STASH {
                s.push(skeleton);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn leaf_values_are_stored() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[1.0, 2.0]));
        assert_eq!(t.value(a).data(), &[1.0, 2.0]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn backward_of_identity_leaf_is_ones() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::vector(&[3.0, 4.0]));
        let g = t.backward(a, 0);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn param_grad_is_aggregated_across_uses() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[1.0]));
        let mut t = Tape::new();
        let a = t.param(&ps, w);
        let b = t.param(&ps, w);
        let s = t.add(a, b);
        let g = t.backward(s, ps.len());
        // d(a+b)/dw where both a and b mirror w: gradient 1 + 1.
        assert_eq!(g.param_grad(w).unwrap().data(), &[2.0]);
    }

    #[test]
    fn unused_param_has_no_grad() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::vector(&[1.0]));
        let u = ps.add("unused", Tensor::vector(&[1.0]));
        let mut t = Tape::new();
        let a = t.param(&ps, w);
        let g = t.backward(a, ps.len());
        assert!(g.param_grad(w).is_some());
        assert!(g.param_grad(u).is_none());
    }

    #[test]
    fn recycled_tape_reruns_identically() {
        // Two tapes built back-to-back (the second recycles the first's
        // skeleton) must produce bit-identical values and gradients.
        let run = || {
            let mut ps = ParamStore::new();
            let w = ps.add("w", Tensor::vector(&[0.5, -1.25, 3.0]));
            let mut t = Tape::new();
            let a = t.param(&ps, w);
            let b = t.tanh(a);
            let c = t.mul(b, a);
            let l = t.sum_all(c);
            let loss_bits: Vec<u32> = t.value(l).data().iter().map(|x| x.to_bits()).collect();
            let g = t.backward(l, ps.len());
            let grad_bits: Vec<u32> = g
                .param_grad(w)
                .unwrap()
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            (loss_bits, grad_bits)
        };
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn closure_captures_drop_on_tape_drop() {
        use std::rc::Rc;
        // A closure capturing an Rc must release it when the tape resets —
        // proves drop_in_place runs over the bump arena.
        let token = Rc::new(());
        {
            let mut t = Tape::new();
            let probe = Rc::clone(&token);
            let a = t.leaf(Tensor::scalar(1.0));
            let v = t.push_bwd(Tensor::scalar(2.0), move |g, _t, gs| {
                let _keepalive = &probe;
                gs.accumulate_in_place(a, g);
            });
            let g = t.backward(v, 0);
            assert_eq!(g.grad(a).unwrap().item(), 1.0);
            assert_eq!(Rc::strong_count(&token), 2);
        }
        assert_eq!(Rc::strong_count(&token), 1, "closure capture leaked");
    }
}
