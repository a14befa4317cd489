//! Dynamic value handles passed between annotated library functions.
//!
//! Mozart treats library data as black boxes: the runtime only ever moves
//! [`DataValue`] handles around and hands them back to wrapper functions,
//! which downcast them to the concrete library types. This mirrors the
//! argument buffers captured by the paper's C++ client library (§4.1).

use std::any::{Any, TypeId};
use std::fmt;
use std::sync::Arc;

use crate::buffer::{ProtectFlag, SharedVec, VecValue};
use crate::context::FutureHandle;
use crate::graph::ValueId;

/// Identity of the underlying storage of a value.
///
/// Mozart uses identities to detect when two function calls touch the same
/// data (e.g. an array mutated in place by one call and read by the next),
/// which is how data-dependency edges are added to the dataflow graph
/// without library cooperation (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataIdentity {
    addr: usize,
    type_id: TypeId,
}

impl DataIdentity {
    /// Build an identity from a storage address and the value's type.
    pub fn new(addr: usize, type_id: TypeId) -> Self {
        DataIdentity { addr, type_id }
    }
}

/// A library value that can be captured into the dataflow graph.
///
/// Implementations are cheap-to-clone handles (the substrate libraries in
/// this repository use `Arc`-backed buffers). The default implementations
/// are correct for purely-functional values; types whose storage can be
/// *mutated in place* by annotated functions should override
/// [`DataObject::stable_identity`] (so all handles to the same storage
/// compare equal) and [`DataObject::protect_flag`] (so reads of lazily
/// mutated data force evaluation, Mozart's stand-in for the paper's
/// `mprotect`-based laziness).
///
/// The runtime relies on that purity contract: a live output that no
/// read asked for, computed by calls that mutate nothing from values
/// that override neither method, is kept as its lineage and recomputed
/// if it is read later (`OutputKind::Lineage`). A type whose contents
/// can change behind a handle that keeps the defaults would read its new
/// contents in such a replay.
pub trait DataObject: Any + Send + Sync {
    /// Short, stable type name used in error messages.
    fn type_name(&self) -> &'static str;

    /// Address identifying the value's backing storage, if the value has
    /// identifiable mutable storage. `None` means each handle is distinct.
    /// A handle keeps the storage it names alive, so that no other
    /// storage can take the address while the handle lives.
    fn stable_identity(&self) -> Option<usize> {
        None
    }

    /// Protection flag used to trigger lazy evaluation on access, if the
    /// value supports it (see [`crate::buffer::SharedVec`]).
    fn protect_flag(&self) -> Option<&ProtectFlag> {
        None
    }
}

/// A dynamically typed value handle.
///
/// Either concrete data, or a lazy reference to a value that the dataflow
/// graph of a specific context will produce (the return value of an
/// annotated call). Wrapper functions accept `DataValue`s so that lazy
/// results can be pipelined into later calls, exactly like the paper's
/// `Future<T>` arguments (§4.1).
#[derive(Clone)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum DataValue {
    /// Materialized library data.
    Data(Arc<dyn DataObject>),
    /// A value that will be produced by the dataflow graph of the context
    /// identified by `ctx_id`.
    Lazy { ctx_id: u64, value: ValueId },
}

impl DataValue {
    /// Wrap a concrete library value.
    pub fn new<T: DataObject>(value: T) -> Self {
        DataValue::Data(Arc::new(value))
    }

    /// Wrap an already-shared library value.
    pub fn from_arc(value: Arc<dyn DataObject>) -> Self {
        DataValue::Data(value)
    }

    /// Whether this handle is a lazy (not yet produced) value.
    pub fn is_lazy(&self) -> bool {
        matches!(self, DataValue::Lazy { .. })
    }

    /// Downcast to a concrete type. Returns `None` for lazy handles or
    /// type mismatches.
    pub fn downcast_ref<T: DataObject>(&self) -> Option<&T> {
        match self {
            DataValue::Data(d) => (&**d as &dyn Any).downcast_ref::<T>(),
            DataValue::Lazy { .. } => None,
        }
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            DataValue::Data(d) => d.type_name(),
            DataValue::Lazy { .. } => "<lazy>",
        }
    }

    /// Identity of the underlying storage, used for dependency tracking.
    ///
    /// Values with stable storage (shared buffers) report the storage
    /// address; others report the address of the handle's allocation, so
    /// two clones of the same `DataValue` share an identity.
    pub fn identity(&self) -> Option<DataIdentity> {
        match self {
            DataValue::Data(d) => {
                let addr = d
                    .stable_identity()
                    .unwrap_or(Arc::as_ptr(d) as *const () as usize);
                Some(DataIdentity::new(addr, (&**d as &dyn Any).type_id()))
            }
            DataValue::Lazy { .. } => None,
        }
    }

    /// Protection flag of the underlying storage, if any.
    pub fn protect_flag(&self) -> Option<&ProtectFlag> {
        match self {
            DataValue::Data(d) => d.protect_flag(),
            DataValue::Lazy { .. } => None,
        }
    }

    /// Whether this is materialized data whose type declares neither a
    /// [`DataObject::stable_identity`] nor a [`DataObject::protect_flag`]:
    /// purely functional by the trait's contract, so its contents never
    /// change.
    pub fn immutable(&self) -> bool {
        match self {
            DataValue::Data(d) => d.stable_identity().is_none() && d.protect_flag().is_none(),
            DataValue::Lazy { .. } => false,
        }
    }
}

impl fmt::Debug for DataValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataValue::Data(d) => write!(f, "DataValue({})", d.type_name()),
            DataValue::Lazy { ctx_id, value } => {
                write!(f, "DataValue(lazy ctx={ctx_id} v={})", value.0)
            }
        }
    }
}

/// One argument of [`MozartContext::call`](crate::MozartContext::call),
/// borrowed from the caller: a wrapper passes what it was given, and
/// the runtime wraps it as a [`DataValue`] only where it keeps one — a
/// captured call's graph node, or a piece a call at the work floor runs
/// on.
#[derive(Clone, Copy, Debug)]
pub enum Arg<'a> {
    /// A shared `f64` buffer, taken as a [`VecValue`].
    Vec(&'a SharedVec<f64>),
    /// An integer scalar, taken as an [`IntValue`].
    Int(i64),
    /// A floating-point scalar, taken as a [`FloatValue`].
    Float(f64),
    /// The lazy result of an earlier call.
    Future(&'a FutureHandle),
    /// Any other value, materialized or lazy.
    Value(&'a DataValue),
}

impl Arg<'_> {
    /// The argument as an owned value handle.
    pub fn to_value(&self) -> DataValue {
        match *self {
            Arg::Vec(v) => DataValue::new(VecValue(v.clone())),
            Arg::Int(i) => DataValue::new(IntValue(i)),
            Arg::Float(x) => DataValue::new(FloatValue(x)),
            Arg::Future(f) => f.as_value(),
            Arg::Value(v) => v.clone(),
        }
    }
}

macro_rules! scalar_value {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name(pub $inner);

        impl DataObject for $name {
            fn type_name(&self) -> &'static str {
                stringify!($name)
            }
        }
    };
}

scalar_value!(
    /// An integer scalar argument (e.g. an array length).
    IntValue,
    i64
);
scalar_value!(
    /// A floating-point scalar argument (e.g. a constant multiplier).
    FloatValue,
    f64
);
scalar_value!(
    /// A boolean scalar argument.
    BoolValue,
    bool
);

/// A string scalar argument (e.g. a column name).
#[derive(Debug, Clone)]
pub struct StrValue(pub Arc<str>);

impl StrValue {
    /// Build from any string-like value.
    pub fn new(s: impl Into<Arc<str>>) -> Self {
        StrValue(s.into())
    }
}

impl DataObject for StrValue {
    fn type_name(&self) -> &'static str {
        "StrValue"
    }
}

/// Extract an `i64` from a value holding an [`IntValue`].
pub fn as_i64(v: &DataValue) -> Option<i64> {
    v.downcast_ref::<IntValue>().map(|i| i.0)
}

/// Extract an `f64` from a value holding a [`FloatValue`].
pub fn as_f64(v: &DataValue) -> Option<f64> {
    v.downcast_ref::<FloatValue>().map(|x| x.0)
}

/// `T`'s name without its module path, for error messages about a
/// value that is not a `T`.
pub(crate) fn short_type_name<T>() -> &'static str {
    std::any::type_name::<T>().rsplit("::").next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downcast_roundtrip() {
        let v = DataValue::new(IntValue(42));
        assert_eq!(v.downcast_ref::<IntValue>().unwrap().0, 42);
        assert!(v.downcast_ref::<FloatValue>().is_none());
        assert_eq!(v.type_name(), "IntValue");
    }

    #[test]
    fn clones_share_identity() {
        let v = DataValue::new(FloatValue(1.5));
        let w = v.clone();
        assert_eq!(v.identity(), w.identity());
    }

    #[test]
    fn distinct_values_have_distinct_identity() {
        let v = DataValue::new(IntValue(1));
        let w = DataValue::new(IntValue(1));
        assert_ne!(v.identity(), w.identity());
    }

    #[test]
    fn lazy_values_have_no_identity() {
        let v = DataValue::Lazy {
            ctx_id: 1,
            value: ValueId(0),
        };
        assert!(v.identity().is_none());
        assert!(v.is_lazy());
        assert!(v.downcast_ref::<IntValue>().is_none());
    }

    #[test]
    fn identity_distinguishes_types_at_same_addr() {
        // Two zero-sized-ish values could in principle collide on address;
        // the TypeId component keeps identities distinct per type.
        let a = DataIdentity::new(0x1000, TypeId::of::<IntValue>());
        let b = DataIdentity::new(0x1000, TypeId::of::<FloatValue>());
        assert_ne!(a, b);
    }
}
