//! Split types and the splitting API v2 (§3 of the paper).
//!
//! A *split type* is a parameterized (dependent) type `N<V0..Vn>`: two
//! split types are equal iff their names and parameter values are equal.
//! Annotators implement the splitting API — constructor, `split`, `merge`
//! and `info` (Table 1) — once per split type, and the runtime uses split
//! type equality to decide which functions may be pipelined.
//!
//! # The v2 capability surface
//!
//! The core [`Splitter`] trait is deliberately small: `name`,
//! `construct`, `default_params`, `info`, `split`, and a single `merge`
//! entry point that always receives the merged element total as a size
//! hint. Everything else the runtime learns about merging comes from
//! **one capability probe**, [`Splitter::merge_strategy`], which returns a
//! [`MergeStrategy`] descriptor:
//!
//! * [`MergeStrategy::Concat`] — `merge` is pure concatenation in
//!   element order. The optional [`Placement`] capability object
//!   enables the zero-copy fast path where workers write result pieces
//!   directly into a preallocated output. In-place pieces (the MKL
//!   mut-argument convention) are one case of it: views that follow
//!   each other in one buffer concatenate to that buffer without
//!   touching an element.
//! * [`MergeStrategy::Custom`] — an associative merge that is not a
//!   concatenation (reductions, re-aggregating grouped partials).
//!   `terminal: true` marks partials that must merge before any other
//!   function consumes them.
//!
//! Every merge is associative and sees its pieces in element order;
//! none is assumed to commute. The executor merges collected pieces
//! over a fixed grouping of batches that depends on the plan alone
//! (see [`crate::executor`]), so a floating-point fold returns the same
//! bits whichever worker ran which batch.
//!
//! Concatenation-shaped split types can additionally expose a
//! [`Concat`] capability via [`Splitter::concat`]: the *inverse* of
//! `split`, concatenating whole values end to end and slicing element
//! ranges back out. The serving layer uses it to coalesce
//! fingerprint-identical requests into one evaluation over concatenated
//! inputs — the split/merge duality run in reverse, with zero
//! per-pipeline concatenation code.
//!
//! Most split types do not implement these traits by hand. Those whose
//! values split into bands of rows (arrays along the leading axis,
//! images, DataFrames and Series, corpora) implement
//! [`RowSplitter`](crate::row_bands::RowSplitter) and their values
//! [`RowBand`](crate::row_bands::RowBand), and [`crate::row_bands`]
//! derives `Splitter`, `Placement` and `Concat` from those, once for
//! all of them. Merge-only split types, whose pieces are the partial
//! results of reductions, implement
//! [`MergeOnly`](crate::merge_only::MergeOnly), and
//! [`crate::merge_only`] derives their `Splitter`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::{DataValue, IntValue};

/// Parameter values of a split type instance.
///
/// The paper models parameters as integers (array lengths, matrix
/// dimensions, axes); we do the same.
pub type Params = Vec<i64>;

/// Information a split type relays to the runtime so it can choose batch
/// sizes (§5.2 step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeInfo {
    /// Total number of splittable elements the argument will produce
    /// (array elements, matrix rows, DataFrame rows, ...).
    pub total_elements: u64,
    /// Size of one element in bytes; used in the batch-size heuristic
    /// `batch = C * L2 / Σ sizeof(element)`. Zero for arguments that do
    /// not contribute to cache pressure (e.g. a split size scalar).
    pub elem_size_bytes: u64,
}

/// How result pieces of a split type become a whole value — the
/// capability descriptor returned by [`Splitter::merge_strategy`]: the
/// runtime asks one question per split type and receives every
/// merge-related capability at once.
#[derive(Clone)]
pub enum MergeStrategy {
    /// [`Splitter::merge`] is pure concatenation in element order. The
    /// optional [`Placement`] capability enables the zero-copy merge
    /// fast path, which every such output takes: the runtime
    /// preallocates the output once and workers write pieces at their
    /// element offsets.
    Concat {
        /// Zero-copy placement-merge capability, or `None` to always
        /// collect-and-concatenate. A `'static` object, so the probe
        /// allocates nothing: it runs for every input and output of
        /// every planned and verified stage.
        placement: Option<&'static dyn Placement>,
    },
    /// An associative merge that is not a concatenation: a fold of
    /// partial results (sums, means, re-grouped aggregations) or of a
    /// partition that carries no elements. This is the default, and the
    /// weakest assumption the runtime can make.
    Custom {
        /// Whether pieces are *partial results* rather than a partition
        /// of the final value (reductions, grouped aggregations).
        /// Terminal values must be merged before any other function
        /// consumes them, so they always end their stage. Partial
        /// results have no element offsets, so they cannot be placed.
        terminal: bool,
    },
}

impl Default for MergeStrategy {
    fn default() -> Self {
        MergeStrategy::Custom { terminal: false }
    }
}

impl MergeStrategy {
    /// Whether pieces are partial results that must merge before any
    /// other function consumes them (ends the stage in the planner).
    pub fn terminal(&self) -> bool {
        matches!(self, MergeStrategy::Custom { terminal: true })
    }

    /// The placement capability, if the strategy is a placement-capable
    /// concatenation.
    pub fn placement(&self) -> Option<&'static dyn Placement> {
        match self {
            MergeStrategy::Concat { placement } => *placement,
            _ => None,
        }
    }
}

impl std::fmt::Debug for MergeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeStrategy::Concat { placement } => {
                write!(f, "Concat {{ placement: {} }}", placement.is_some())
            }
            MergeStrategy::Custom { terminal } => write!(f, "Custom {{ terminal: {terminal} }}"),
        }
    }
}

/// Zero-copy *placement merge* capability for concat-shaped outputs,
/// carried by [`MergeStrategy::Concat`].
///
/// Placement merging is the fast path for concatenation: instead of
/// collecting pieces and re-copying them in a final merge, the executor
/// preallocates the merged value once and has every worker
/// [`write_piece`](Placement::write_piece) its results directly at
/// their element offsets — the returned-value analogue of a
/// mut-argument's pieces, views whose writes already land in the final
/// buffer.
pub trait Placement: Send + Sync {
    /// Allocate a placement output covering `total_elements` elements
    /// (in [`RuntimeInfo`] units), or `Ok(None)` to decline.
    ///
    /// The executor calls this at most twice per output — and not at
    /// all when [`reuse`](Placement::reuse) hands back a spare target
    /// at the same point. Once at *stage start* with `exemplar: None`,
    /// on the calling thread while the pool is still parked: split types whose parameters fully
    /// determine the output layout should allocate here, where the
    /// allocation's first-touch page faults run uncontended instead of
    /// spinning against the parallel phase's own faults inside worker
    /// merge windows. If that returns `None`, once more on the first
    /// result piece any worker produces, with `exemplar: Some(piece)`:
    /// split types whose output layout is data-dependent — a
    /// DataFrame's schema, a column's dtype — size the allocation from
    /// the piece. Returning `None` both times declines placement for
    /// the stage, and the output merges through [`Splitter::merge`];
    /// an implementation can use the exemplar to decline dynamically,
    /// e.g. when the pieces already alias a final buffer and a copy
    /// would be a regression.
    ///
    /// Implementations that return `Some(out)` must support concurrent
    /// `write_piece` calls at disjoint element offsets from multiple
    /// threads, and the split type's `merge` semantics must be pure
    /// concatenation in element order. The contents need not be
    /// initialized — the executor's coverage check lets no unwritten
    /// element be read — but a *fresh* allocation should fault its
    /// pages in before returning (see
    /// [`crate::buffer::SharedVec::uninit_prefaulted`]): first-touch
    /// faults taken by parallel writers on one new mapping serialize in
    /// the kernel. Only this cold path pays for that; a target handed
    /// back through [`reuse`](Placement::reuse) is resident already.
    fn alloc_merged(
        &self,
        total_elements: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Result<Option<DataValue>>;

    /// Offer a *spare* — the placement output an earlier evaluation of
    /// the same plan-cache fingerprint produced at this stage and output
    /// index and has since let go of — in place of a fresh
    /// [`alloc_merged`](Placement::alloc_merged) allocation. Called
    /// with the arguments `alloc_merged` would get, immediately before
    /// it, at the call site that resolved the spare when it was new: at
    /// stage start (`exemplar: None`) for parameter-determined layouts,
    /// on the first result piece otherwise. Returning `Some(out)` skips
    /// the allocation (and its page faults); returning `None` drops the
    /// spare, and `alloc_merged` runs as if there had been none. The
    /// default never reuses.
    ///
    /// An implementation may return the spare only if, *at this
    /// moment*,
    ///
    /// * its storage is **exclusively owned**: no application clone, no
    ///   row/element view, no coalesced `slice_back` band of it is
    ///   alive. The application may well have held the previous result
    ///   when the runtime let go of it and dropped it since, which is
    ///   why the check belongs here and not where the spare was parked.
    ///   Take the library value out of `spare`, drop `spare`, and ask
    ///   the library's `Arc::get_mut`-style query (e.g.
    ///   [`SharedVec::is_exclusive`](crate::buffer::SharedVec::is_exclusive)):
    ///   an exclusive handle cannot be shared behind the caller's back;
    /// * it is a *whole* buffer of exactly the layout `alloc_merged`
    ///   would produce for these arguments — not a `NULL`-tail
    ///   truncation, not a different shape or dtype.
    ///
    /// The returned value is written by
    /// [`write_piece`](Placement::write_piece) exactly like a fresh
    /// one; its previous contents are never read (same coverage rule
    /// as an uninitialized allocation).
    fn reuse(
        &self,
        spare: DataValue,
        total_elements: u64,
        params: &Params,
        exemplar: Option<&DataValue>,
    ) -> Option<DataValue> {
        let _ = (spare, total_elements, params, exemplar);
        None
    }

    /// Write `piece` into the placement output `out` (allocated by
    /// [`alloc_merged`](Placement::alloc_merged) or handed back by
    /// [`reuse`](Placement::reuse)) starting at element
    /// `offset`, returning the number of elements written — the
    /// piece's actual element count, which may be *less* than the
    /// batch range that produced it when a source dried up mid-batch
    /// (the executor's coverage check relies on the true count to
    /// detect under-filled outputs).
    ///
    /// The executor guarantees that concurrent calls cover disjoint
    /// element ranges (each batch range is claimed exactly once), so
    /// implementations may write through interior-mutable storage
    /// without locking. Implementations must bounds-check `offset`
    /// plus the piece's element count against `out` and error rather
    /// than write out of range.
    fn write_piece(&self, out: &DataValue, offset: u64, piece: &DataValue) -> Result<u64>;

    /// Shrink a placement output that under-filled to its written
    /// prefix of `elements` elements (the paper's `NULL` split return:
    /// a source dried up before the declared total).
    ///
    /// Only called when every written piece formed one contiguous
    /// prefix `[0, elements)`.
    fn truncate_merged(&self, out: DataValue, elements: u64, params: &Params) -> Result<DataValue>;
}

/// Whole-value concatenation — the inverse of [`Splitter::split`],
/// exposed through [`Splitter::concat`] (v2).
///
/// Where `split` carves one value into element ranges, `concat` glues
/// several whole values into one and remembers where each began, and
/// [`slice_back`](Concat::slice_back) extracts an element range as a
/// standalone value. Together they let a layer *above* the runtime run
/// the split/merge duality in reverse: the serving layer concatenates
/// fingerprint-identical requests' inputs, evaluates one pipeline over
/// the combined value, and slices each request's elements back out of
/// the combined outputs — bit-identically to separate evaluation for
/// element-preserving pipelines, with no per-pipeline concat code.
pub trait Concat: Send + Sync {
    /// Concatenate whole values end to end.
    ///
    /// Returns the combined value and each input's starting element
    /// offset (`offsets.len() == values.len()`, `offsets[0] == 0`,
    /// offsets nondecreasing). Errors if `values` is empty or the
    /// values cannot be concatenated (mixed concrete types, mismatched
    /// cross sections such as image widths or DataFrame schemas).
    fn concat(&self, values: &[DataValue]) -> Result<(DataValue, Vec<u64>)>;

    /// Extract elements `[offset, offset + len)` of a concatenated
    /// value as a standalone value (a zero-copy view where the data
    /// type supports one).
    ///
    /// For any `v` among concatenated `values`, `slice_back(out,
    /// offsets[i], elements_of(v))` must reproduce `v`'s elements
    /// exactly.
    fn slice_back(&self, out: &DataValue, offset: u64, len: u64) -> Result<DataValue>;
}

/// The splitting API an annotator implements per split type (Table 1,
/// v2 surface — see the module docs).
///
/// All methods receive the instance's `params` (produced by
/// [`Splitter::construct`]) so one implementation can serve every
/// instance of the type.
pub trait Splitter: Send + Sync + 'static {
    /// The split type's name `N`. Equality of split types compares names
    /// and parameters.
    fn name(&self) -> &'static str;

    /// The constructor `A0..An => V0..Vn`: map the designated function
    /// arguments to this type's parameter values. Must not modify its
    /// arguments.
    ///
    /// Of an `f64` buffer ([`VecValue`](crate::buffer::VecValue)) it may
    /// read the length only, not the elements; of an [`IntValue`] or a
    /// [`FloatValue`](crate::value::FloatValue), the value. A call below
    /// the work floor (see [`crate::context`]) keeps its decision per
    /// call shape — such lengths and values — and reuses it for every
    /// later call of that shape, so parameters read from a buffer's
    /// contents would be stale. The same holds for
    /// [`default_params`](Splitter::default_params) and
    /// [`info`](Splitter::info).
    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params>;

    /// Derive default parameters directly from a value, used when type
    /// inference cannot resolve a generic and the runtime falls back to
    /// the data type's default split (§5.1).
    fn default_params(&self, arg: &DataValue) -> Result<Params> {
        self.construct(&[arg])
    }

    /// Runtime info for batch sizing. `arg` is the full (unsplit) value.
    /// As with [`construct`](Splitter::construct), it may read only the
    /// length of an `f64` buffer and the value of an integer or float.
    fn info(&self, arg: &DataValue, params: &Params) -> Result<RuntimeInfo>;

    /// Produce the piece covering elements `[range.start, range.end)` of
    /// `arg`. Returning `Ok(None)` terminates the driver loop for this
    /// worker (the paper's `NULL` return).
    fn split(
        &self,
        arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>>;

    /// Associatively merge pieces back into a full value.
    ///
    /// Pieces arrive in element order: the executor tags every piece
    /// with the batch range that produced it and sorts before merging,
    /// so dynamic (out-of-order) batch scheduling is invisible to split
    /// types. Which pieces merge together depends on the plan alone:
    /// first each block of batches, then the block values (see
    /// [`crate::executor`]).
    ///
    /// `total_elements` is the merge-size hint: the number of
    /// splittable elements (in [`RuntimeInfo`] units — array elements,
    /// matrix/DataFrame/image rows) the merged result will cover.
    /// Concat-style merges should preallocate the result once from the
    /// hint instead of growing piece by piece; merges that do not care
    /// simply ignore it. The executor passes the block's element count at
    /// block merges and the stage total at the final merge.
    fn merge(
        &self,
        pieces: Vec<DataValue>,
        params: &Params,
        total_elements: u64,
    ) -> Result<DataValue>;

    /// The single v2 capability probe: how this split type's pieces
    /// become a whole value. See [`MergeStrategy`]. The default is the
    /// weakest assumption — an order-sensitive, non-terminal custom
    /// merge with no placement.
    fn merge_strategy(&self) -> MergeStrategy {
        MergeStrategy::default()
    }

    /// Whether this is a split type's name alone, with no implementation
    /// behind it: a `.sa` file's split type that no registered builtin
    /// references. Its merge strategy is unknown, so
    /// [`check_annotation`](crate::verify::check_annotation) neither
    /// passes nor fails the rules that read it.
    fn placeholder(&self) -> bool {
        false
    }

    /// Whole-value concatenation capability — the inverse of `split` —
    /// or `None` (the default) when values of this split type cannot be
    /// concatenated outside the runtime. See [`Concat`].
    fn concat(&self) -> Option<Arc<dyn Concat>> {
        None
    }

    /// Whether the piece `split` returns for a value's whole range
    /// `0..total` stays that value's whole piece for as long as its
    /// storage lives, whatever is written into the storage meanwhile:
    /// a view that aliases the storage (every row-band split type,
    /// [`crate::row_bands`]), or a piece that depends on the parameters
    /// alone (`SizeSplit`). A call run at registration (see "Calls below
    /// the work floor" in [`crate::context`]) then splits each value
    /// once per evaluation instead of once per call. The default, `false`, splits on every
    /// call.
    fn whole_piece_stable(&self) -> bool {
        false
    }
}

/// A fully-applied split type: implementation + concrete parameters.
///
/// `unique` is `Some` for the `unknown` split type, which the paper
/// defines as "a unique split type" — every occurrence is distinct, so
/// two unknown values never type-check as pipelinable with each other,
/// while a single unknown value can still flow into generic arguments.
#[derive(Clone)]
pub struct SplitInstance {
    /// The splitting API implementation.
    pub splitter: Arc<dyn Splitter>,
    /// Concrete parameter values (empty for `unknown`), shared: copies
    /// of an instance (planned stages, executor inputs and outputs,
    /// the per-thread constructor memo) bump a count instead of cloning the vector.
    pub params: Arc<Params>,
    /// Uniqueness token for `unknown` instances.
    pub unique: Option<u64>,
}

static UNKNOWN_COUNTER: AtomicU64 = AtomicU64::new(0);

impl SplitInstance {
    /// A concrete instance of `splitter` with `params`.
    pub fn new(splitter: Arc<dyn Splitter>, params: Params) -> Self {
        SplitInstance {
            splitter,
            params: Arc::new(params),
            unique: None,
        }
    }

    /// A fresh `unknown` instance whose merges are delegated to `merger`.
    pub fn fresh_unknown(merger: Arc<dyn Splitter>) -> Self {
        SplitInstance {
            splitter: merger,
            params: Arc::default(),
            unique: Some(UNKNOWN_COUNTER.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Whether this is an `unknown` instance.
    pub fn is_unknown(&self) -> bool {
        self.unique.is_some()
    }

    /// The splitter's merge capability descriptor (see
    /// [`Splitter::merge_strategy`]). For `unknown` instances this is
    /// the delegated merger's strategy; note the executor never uses
    /// placement for unknown outputs (their pieces may compact, so
    /// batch offsets are meaningless).
    pub fn merge_strategy(&self) -> MergeStrategy {
        self.splitter.merge_strategy()
    }

    /// Whether this instance's pieces are partial results that must be
    /// merged before further consumption (derived from
    /// [`Splitter::merge_strategy`]).
    pub fn terminal(&self) -> bool {
        self.splitter.merge_strategy().terminal()
    }

    /// Split type equality: same name, same parameters, same uniqueness
    /// token (§3.2).
    pub fn same_type(&self, other: &SplitInstance) -> bool {
        self.unique == other.unique
            && self.splitter.name() == other.splitter.name()
            && self.params == other.params
    }
}

impl std::fmt::Debug for SplitInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.unique {
            Some(u) => write!(f, "unknown#{u}"),
            None => write!(f, "{}{:?}", self.splitter.name(), self.params),
        }
    }
}

/// The paper's `SizeSplit` (§2.1, Listing 2): splits an integer length
/// argument so that each piece carries the length of the corresponding
/// array piece. Parameter: the total size.
pub struct SizeSplit;

impl Splitter for SizeSplit {
    fn name(&self) -> &'static str {
        "SizeSplit"
    }

    fn construct(&self, ctor_args: &[&DataValue]) -> Result<Params> {
        let v = ctor_args
            .first()
            .and_then(|v| crate::value::as_i64(v))
            .ok_or_else(|| Error::Constructor {
                split_type: "SizeSplit",
                message: "expected one integer argument".into(),
            })?;
        Ok(vec![v])
    }

    fn info(&self, _arg: &DataValue, params: &Params) -> Result<RuntimeInfo> {
        Ok(RuntimeInfo {
            total_elements: params.first().copied().unwrap_or(0).max(0) as u64,
            elem_size_bytes: 0,
        })
    }

    fn split(
        &self,
        _arg: &DataValue,
        range: Range<u64>,
        params: &Params,
    ) -> Result<Option<DataValue>> {
        let total = params.first().copied().unwrap_or(0).max(0) as u64;
        if range.start >= total {
            return Ok(None);
        }
        let end = range.end.min(total);
        Ok(Some(DataValue::new(IntValue((end - range.start) as i64))))
    }

    fn merge(
        &self,
        _pieces: Vec<DataValue>,
        params: &Params,
        _total_elements: u64,
    ) -> Result<DataValue> {
        // The merged size is just the original total.
        Ok(DataValue::new(IntValue(
            params.first().copied().unwrap_or(0),
        )))
    }

    fn merge_strategy(&self) -> MergeStrategy {
        // The merge result does not depend on the pieces at all; the
        // sizes are a partition, not partial results, so it is not
        // terminal.
        MergeStrategy::Custom { terminal: false }
    }

    fn whole_piece_stable(&self) -> bool {
        // A piece is the length of its range, nothing else.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn size_instance(n: i64) -> SplitInstance {
        SplitInstance::new(Arc::new(SizeSplit), vec![n])
    }

    #[test]
    fn size_split_pieces_carry_chunk_lengths() {
        let s = SizeSplit;
        let arg = DataValue::new(IntValue(10));
        let params = s.construct(&[&arg]).unwrap();
        assert_eq!(params, vec![10]);
        let info = s.info(&arg, &params).unwrap();
        assert_eq!(info.total_elements, 10);
        assert_eq!(info.elem_size_bytes, 0);

        let p = s.split(&arg, 0..4, &params).unwrap().unwrap();
        assert_eq!(p.downcast_ref::<IntValue>().unwrap().0, 4);
        // Clamped final chunk.
        let p = s.split(&arg, 8..12, &params).unwrap().unwrap();
        assert_eq!(p.downcast_ref::<IntValue>().unwrap().0, 2);
        // Past the end terminates the driver loop.
        assert!(s.split(&arg, 10..14, &params).unwrap().is_none());
    }

    #[test]
    fn instance_equality_is_name_and_params() {
        let a = size_instance(10);
        let b = size_instance(10);
        let c = size_instance(20);
        assert!(a.same_type(&b));
        assert!(!a.same_type(&c));
    }

    #[test]
    fn unknown_instances_are_unique() {
        let m: Arc<dyn Splitter> = Arc::new(SizeSplit);
        let a = SplitInstance::fresh_unknown(m.clone());
        let b = SplitInstance::fresh_unknown(m.clone());
        assert!(a.is_unknown());
        assert!(a.same_type(&a.clone()));
        assert!(!a.same_type(&b));
        // An unknown never equals a concrete instance of the same splitter.
        let c = SplitInstance::new(m, vec![]);
        assert!(!a.same_type(&c));
    }

    #[test]
    fn merge_ignores_hint_when_strategy_does_not_need_it() {
        // The size hint is advisory: splitters that don't preallocate
        // behave identically whatever the hint says.
        let s = SizeSplit;
        let arg = DataValue::new(IntValue(10));
        let params = s.construct(&[&arg]).unwrap();
        let a = s.split(&arg, 0..4, &params).unwrap().unwrap();
        let b = s.split(&arg, 4..10, &params).unwrap().unwrap();
        let merged = s.merge(vec![a, b], &params, 10).unwrap();
        assert_eq!(merged.downcast_ref::<IntValue>().unwrap().0, 10);
    }

    #[test]
    fn strategy_probe_derives_instance_capabilities() {
        let inst = size_instance(4);
        assert!(!inst.terminal());
        assert!(inst.merge_strategy().placement().is_none());
        assert!(inst.splitter.concat().is_none());
        // Default strategy is the weakest assumption.
        let d = MergeStrategy::default();
        assert!(!d.terminal() && d.placement().is_none());
        // Terminal customs report terminal.
        assert!(MergeStrategy::Custom { terminal: true }.terminal());
    }

    #[test]
    fn constructor_rejects_wrong_argument() {
        let s = SizeSplit;
        let arg = DataValue::new(crate::value::FloatValue(1.0));
        assert!(s.construct(&[&arg]).is_err());
        assert!(s.construct(&[]).is_err());
    }
}
