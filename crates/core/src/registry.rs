//! Default split type registry (§5.1).
//!
//! When type inference cannot resolve a generic split type (e.g. every
//! function in a pipeline is generic), Mozart "falls back to a default
//! for the data type: annotators provide a default split type constructor
//! per data type". Integration crates register their defaults here.

use std::any::TypeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::annotation::Annotation;
use crate::error::{Error, Result};
use crate::graph::WordMap;
use crate::split::{SplitInstance, Splitter};
use crate::value::{DataObject, DataValue};

static REGISTRY: RwLock<Option<WordMap<TypeId, Arc<dyn Splitter>>>> = RwLock::new(None);

/// See [`generation`].
static GENERATION: AtomicU64 = AtomicU64::new(0);

static ANNOTATIONS: RwLock<Vec<Arc<Annotation>>> = RwLock::new(Vec::new());

/// Register `splitter` as the default split type for data type `T`.
///
/// Later registrations for the same type replace earlier ones (so tests
/// can override defaults).
///
/// A default for an `f64` buffer, an integer or a float must derive its
/// parameters and [`RuntimeInfo`](crate::split::RuntimeInfo) from the
/// buffer's length or the scalar's value alone (see
/// [`Splitter::construct`]): a call below the work floor reuses what it
/// decided for every later call of the same shape.
pub fn register_default_splitter<T: DataObject>(splitter: Arc<dyn Splitter>) {
    let mut guard = REGISTRY.write();
    let name = splitter.name();
    let old = guard
        .get_or_insert_with(WordMap::default)
        .insert(TypeId::of::<T>(), splitter);
    // Split types are equal when their names are (§3.2): registering the
    // same one again, as every integration's setup does, changes nothing.
    if old.is_none_or(|old| old.name() != name) {
        GENERATION.fetch_add(1, Ordering::Release);
    }
}

/// Bumped whenever a type's default split type changes. Read before a
/// lookup, it changes if the lookup's answer may have.
pub(crate) fn generation() -> u64 {
    GENERATION.load(Ordering::Acquire)
}

/// Look up the default splitter for a value's concrete type.
pub fn default_splitter_for(value: &DataValue) -> Option<Arc<dyn Splitter>> {
    let type_id = match value {
        DataValue::Data(d) => (&**d as &dyn std::any::Any).type_id(),
        DataValue::Lazy { .. } => return None,
    };
    REGISTRY.read().as_ref()?.get(&type_id).cloned()
}

/// Register an annotation with the global annotation registry so
/// static tooling (the `mozart-check` binary, the annotation layer of
/// [`crate::verify`]) can walk every builtin annotation without
/// executing a workload. Integration crates call this from their
/// `register_defaults()` alongside their default-splitter
/// registrations. Registering the same annotation (by `Arc` identity)
/// twice is a no-op.
pub fn register_annotation(annot: Arc<Annotation>) {
    let mut guard = ANNOTATIONS.write();
    if !guard.iter().any(|a| Arc::ptr_eq(a, &annot)) {
        guard.push(annot);
    }
}

/// Every annotation registered via [`register_annotation`], in
/// registration order.
pub fn registered_annotations() -> Vec<Arc<Annotation>> {
    ANNOTATIONS.read().clone()
}

/// Build the default split instance for a value, constructing the
/// splitter's parameters directly from the value.
pub fn default_instance_for(value: &DataValue) -> Result<SplitInstance> {
    let splitter = default_splitter_for(value).ok_or(Error::NoDefaultSplit {
        type_name: value.type_name(),
    })?;
    let params = splitter.default_params(value)?;
    Ok(SplitInstance::new(splitter, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SizeSplit;
    use crate::value::IntValue;

    #[test]
    fn register_and_lookup_default() {
        register_default_splitter::<IntValue>(Arc::new(SizeSplit));
        let v = DataValue::new(IntValue(12));
        let inst = default_instance_for(&v).unwrap();
        assert_eq!(inst.splitter.name(), "SizeSplit");
        assert_eq!(*inst.params, vec![12]);
    }

    #[test]
    fn missing_default_is_an_error() {
        let v = DataValue::new(crate::value::BoolValue(true));
        match default_instance_for(&v) {
            Err(Error::NoDefaultSplit { type_name }) => {
                assert_eq!(type_name, "BoolValue")
            }
            other => panic!("expected NoDefaultSplit, got {other:?}"),
        }
    }
}
