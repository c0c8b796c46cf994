//! Deterministic fault injection for the virtual device.
//!
//! The paper's headline claim is that nsparse *survives* inputs that
//! exhaust device memory on other libraries (Table III's "-" entries).
//! Exercising the recovery paths of the pipeline therefore needs a way
//! to make the device fail on demand, reproducibly: a [`FaultPlan`]
//! attached to a [`crate::Gpu`] injects an out-of-memory error on the
//! Nth `malloc`, fails every launch of a named kernel, or errors the
//! Nth `memcpy`. Plans are plain data — seeded, order-independent,
//! round-trippable through a compact text spec (`FaultPlan::parse` /
//! `Display`) — so a failing run can be replayed from a single string,
//! and injected faults are counted (`Gpu::injected_faults`) and logged
//! as `fault` events when telemetry is on, so they show up in traces
//! next to the work they interrupted.

use std::fmt;

/// One injected fault. Malloc/memcpy rules are **one-shot** (they match
/// a specific 1-based call ordinal and never fire again); kernel rules
/// are name-matched and fire on every launch of that kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultRule {
    /// Fail the `nth` call to `Gpu::malloc` (1-based) with an injected
    /// out-of-memory error.
    MallocOom {
        /// 1-based malloc ordinal to fail.
        nth: u64,
    },
    /// Fail every launch of the kernel with this exact name.
    KernelFail {
        /// Kernel name as passed to `KernelDesc::new`.
        name: String,
    },
    /// Fail the `nth` call to `Gpu::memcpy` (1-based).
    MemcpyFail {
        /// 1-based memcpy ordinal to fail.
        nth: u64,
    },
}

/// A serializable, seeded set of faults to inject into one run.
///
/// The `seed` is carried for provenance (it names the plan in traces);
/// matching itself is purely deterministic in the rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Provenance seed (0 when the plan was built by hand).
    pub seed: u64,
    /// The faults to inject.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan with a provenance seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Add a one-shot OOM on the `nth` malloc (1-based).
    pub fn malloc_oom(mut self, nth: u64) -> Self {
        self.rules.push(FaultRule::MallocOom { nth });
        self
    }

    /// Add a failure for every launch of kernel `name`.
    pub fn kernel_fail(mut self, name: impl Into<String>) -> Self {
        self.rules.push(FaultRule::KernelFail { name: name.into() });
        self
    }

    /// Add a one-shot failure on the `nth` memcpy (1-based).
    pub fn memcpy_fail(mut self, nth: u64) -> Self {
        self.rules.push(FaultRule::MemcpyFail { nth });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Does the `nth` malloc (1-based) fail under this plan?
    pub fn should_fail_malloc(&self, nth: u64) -> bool {
        self.rules.iter().any(|r| matches!(r, FaultRule::MallocOom { nth: n } if *n == nth))
    }

    /// Does a launch of kernel `name` fail under this plan?
    pub fn should_fail_kernel(&self, name: &str) -> bool {
        self.rules.iter().any(|r| matches!(r, FaultRule::KernelFail { name: n } if n == name))
    }

    /// Does the `nth` memcpy (1-based) fail under this plan?
    pub fn should_fail_memcpy(&self, nth: u64) -> bool {
        self.rules.iter().any(|r| matches!(r, FaultRule::MemcpyFail { nth: n } if *n == nth))
    }

    /// Parse the compact spec emitted by `Display`:
    /// `seed=S;malloc-oom=N;kernel-fail=NAME;memcpy-fail=N` — clauses
    /// separated by `;`, each key repeatable, order preserved, `seed`
    /// optional (defaults to 0). This is the `--faults` CLI grammar.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let ordinal = |what: &str| {
                value.parse::<u64>().map_err(|_| {
                    format!("fault clause '{clause}': {what} ordinal '{value}' is not a number")
                })
            };
            match key {
                "seed" => plan.seed = ordinal("seed")?,
                "malloc-oom" => plan.rules.push(FaultRule::MallocOom { nth: ordinal("malloc")? }),
                "memcpy-fail" => plan.rules.push(FaultRule::MemcpyFail { nth: ordinal("memcpy")? }),
                "kernel-fail" => {
                    if value.is_empty() {
                        return Err(format!("fault clause '{clause}': empty kernel name"));
                    }
                    plan.rules.push(FaultRule::KernelFail { name: value.to_string() });
                }
                other => return Err(format!("unknown fault key '{other}' in '{clause}'")),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            match rule {
                FaultRule::MallocOom { nth } => write!(f, ";malloc-oom={nth}")?,
                FaultRule::KernelFail { name } => write!(f, ";kernel-fail={name}")?,
                FaultRule::MemcpyFail { nth } => write!(f, ";memcpy-fail={nth}")?,
            }
        }
        Ok(())
    }
}

/// SplitMix64 — the seed mixer used for plan derivation (same finalizer
/// family the matgen generators use; no external RNG dependency).
pub fn split_mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Live injection state attached to a [`crate::Gpu`]: the plan plus the
/// call counters it matches against.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// The plan in effect.
    pub plan: FaultPlan,
    /// `Gpu::malloc` calls observed so far.
    pub mallocs_seen: u64,
    /// `Gpu::memcpy` calls observed so far.
    pub memcpys_seen: u64,
    /// Faults actually injected so far.
    pub injected: u64,
}

impl FaultState {
    /// Fresh state for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState { plan, ..FaultState::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_matchers() {
        let p = FaultPlan::new(7).malloc_oom(3).kernel_fail("symbolic_global").memcpy_fail(2);
        assert!(!p.should_fail_malloc(2));
        assert!(p.should_fail_malloc(3));
        assert!(p.should_fail_kernel("symbolic_global"));
        assert!(!p.should_fail_kernel("numeric_global"));
        assert!(p.should_fail_memcpy(2));
        assert!(!p.should_fail_memcpy(1));
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn display_parse_round_trip() {
        let p = FaultPlan::new(42).malloc_oom(3).kernel_fail("numeric_tb_g1").memcpy_fail(2);
        let spec = p.to_string();
        assert_eq!(spec, "seed=42;malloc-oom=3;kernel-fail=numeric_tb_g1;memcpy-fail=2");
        assert_eq!(FaultPlan::parse(&spec).unwrap(), p);
        // Seed clause is optional.
        let q = FaultPlan::parse("malloc-oom=1").unwrap();
        assert_eq!(q, FaultPlan::new(0).malloc_oom(1));
        // Whitespace is tolerated.
        assert_eq!(
            FaultPlan::parse(" seed=1 ; malloc-oom= 4 ").unwrap(),
            FaultPlan::new(1).malloc_oom(4)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("frob=1").is_err());
        assert!(FaultPlan::parse("malloc-oom=x").is_err());
        assert!(FaultPlan::parse("kernel-fail=").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}
