//! Runtime configuration (worker count, batch-size heuristic, fault
//! injection, tracing).

/// Configuration of a [`MozartContext`](crate::MozartContext).
///
/// How outputs leave a stage is not configurable: placement merges are
/// taken wherever the split type has the capability (the executor's
/// [output-path table](crate::executor#output-paths)). Neither are the
/// soundness checks: every annotation is checked against the paper's
/// typing rules once, when it is built, every stage plan is verified
/// before it executes (see [`crate::verify`]), and the executor's
/// split-agreement checks (§7.1's "pedantic mode") always run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of worker threads. The paper leaves this to the user; the
    /// default is the machine's available parallelism.
    pub workers: usize,
    /// L2 cache size in bytes, the basis of the batch-size heuristic
    /// `batch = L2 / Σ sizeof(element)` (§5.2 step 1) and of the
    /// *work floor*: a call whose split arguments total at most
    /// `l2_bytes / 16` bytes, in one batch, runs at registration instead
    /// of being captured (see "Calls below the work floor" in
    /// [`crate::context`]).
    pub l2_bytes: u64,
    /// Fixed batch size in elements, overriding the heuristic (used by
    /// the Figure 6 batch-size sweep). The work floor is part of that
    /// heuristic, so with an override set every call is captured and
    /// batched as told, however small.
    pub batch_override: Option<u64>,
    /// When `false`, every function gets its own stage: data is split and
    /// parallelized per call but never pipelined across calls, so every
    /// value passed between calls is merged at the end of one stage and
    /// re-split by the next. This is the paper's "Mozart (-pipe)"
    /// ablation (Table 4).
    pub pipeline: bool,
    /// Deterministic fault-injection schedule
    /// ([`FaultPlan`](crate::faultinject::FaultPlan)); `None` (the
    /// default) means no injection and costs one branch per batch
    /// phase. Shared via `Arc` so clones of the config (e.g. every
    /// request context of a serving session) draw from one budget. Fault
    /// points address executor (stage, phase, batch) coordinates, so
    /// with a plan set every call is captured and staged, however small.
    pub fault_plan: Option<std::sync::Arc<crate::faultinject::FaultPlan>>,
    /// Span recorder for per-request tracing
    /// ([`TraceRecorder`](crate::trace::TraceRecorder)). `None` (the
    /// default) disables tracing entirely: the executor and context pay
    /// one predictable branch per would-be span and never touch a
    /// clock. Shared via `Arc` so every context of a serving tier
    /// records into one set of rings.
    pub tracing: Option<std::sync::Arc<crate::trace::TraceRecorder>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: default_workers(),
            l2_bytes: detect_l2_bytes(),
            batch_override: None,
            pipeline: true,
            fault_plan: None,
            tracing: None,
        }
    }
}

impl Config {
    /// Default configuration with a fixed worker count.
    pub fn with_workers(workers: usize) -> Self {
        Config {
            workers: workers.max(1),
            ..Config::default()
        }
    }

    /// Check that every field the batch-size heuristic consumes is
    /// usable. Called when a config is attached to a
    /// [`MozartContext`](crate::MozartContext) (construction and
    /// `set_config`), which poisons the context on failure instead of
    /// letting a zero cache size mis-size every stage.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.l2_bytes == 0 {
            return Err(crate::error::Error::InvalidConfig(
                "l2_bytes must be nonzero (the batch heuristic divides by element bytes \
                 and multiplies by the cache size)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Compute the batch size for a stage whose split inputs have the
    /// given total per-element footprint in bytes.
    ///
    /// Returns `l2_bytes / sum_elem_bytes` (or the override) clamped to
    /// `[1, total_elements]`.
    pub fn batch_elements(&self, sum_elem_bytes: u64, total_elements: u64) -> u64 {
        if total_elements == 0 {
            return 1;
        }
        if let Some(b) = self.batch_override {
            return b.clamp(1, total_elements);
        }
        if sum_elem_bytes == 0 {
            // Nothing contributes to cache pressure: one batch.
            return total_elements;
        }
        (self.l2_bytes / sum_elem_bytes).clamp(1, total_elements)
    }
}

/// Worker-count default: `MOZART_WORKERS` env var, else available
/// parallelism.
pub fn default_workers() -> usize {
    if let Ok(s) = std::env::var("MOZART_WORKERS") {
        if let Ok(n) = s.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Read the L2 cache size from sysfs, falling back to 256 KiB (the paper
/// targets per-core L2). Overridable with `MOZART_L2_BYTES`.
pub fn detect_l2_bytes() -> u64 {
    if let Ok(s) = std::env::var("MOZART_L2_BYTES") {
        if let Ok(n) = s.parse::<u64>() {
            return n.max(4096);
        }
    }
    if let Ok(s) = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size") {
        let s = s.trim();
        if let Some(kb) = s.strip_suffix('K').and_then(|n| n.parse::<u64>().ok()) {
            return kb * 1024;
        }
        if let Some(mb) = s.strip_suffix('M').and_then(|n| n.parse::<u64>().ok()) {
            return mb * 1024 * 1024;
        }
        if let Ok(b) = s.parse::<u64>() {
            return b;
        }
    }
    256 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            workers: 4,
            l2_bytes: 1 << 20,
            batch_override: None,
            pipeline: true,
            fault_plan: None,
            tracing: None,
        }
    }

    #[test]
    fn batch_size_follows_heuristic() {
        let c = cfg();
        // Three f64 arrays: 24 bytes per element.
        let b = c.batch_elements(24, 1 << 30);
        assert_eq!(b, (1u64 << 20) / 24);
    }

    #[test]
    fn batch_size_clamps_to_total() {
        let c = cfg();
        assert_eq!(c.batch_elements(8, 100), 100);
        assert_eq!(c.batch_elements(0, 100), 100);
        assert_eq!(c.batch_elements(8, 0), 1);
    }

    #[test]
    fn batch_override_wins() {
        let mut c = cfg();
        c.batch_override = Some(4096);
        assert_eq!(c.batch_elements(24, 1 << 30), 4096);
        assert_eq!(c.batch_elements(24, 100), 100);
    }

    #[test]
    fn huge_elements_still_get_a_batch() {
        let c = cfg();
        // One element is larger than L2: batch must still be >= 1.
        assert_eq!(c.batch_elements(1 << 22, 10), 1);
    }
}
