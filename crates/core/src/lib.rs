//! # AWEsymbolic
//!
//! A from-scratch Rust implementation of *"AWEsymbolic: Compiled Analysis
//! of Linear(ized) Circuits using Asymptotic Waveform Evaluation"* (Lee &
//! Rohrer, DAC 1992).
//!
//! AWEsymbolic produces *reduced-order symbolic models* of linear(ized)
//! circuits: some elements are treated as symbols, the circuit is
//! partitioned at the moment level so the heavy numerics stay numeric, the
//! symbolic moments are computed on a tiny global system, and the result
//! is **compiled** into a flat evaluation tape. Evaluating the model at
//! new symbol values costs microseconds — orders of magnitude less than
//! re-running a full analysis — which makes it ideal for highly iterative
//! applications such as interconnect timing models in physical design.
//!
//! ## Quick start
//!
//! ```
//! use awesymbolic::prelude::*;
//!
//! # fn main() -> Result<(), awesymbolic::PartitionError> {
//! // The paper's Fig. 1 RC circuit.
//! let w = generators::fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
//! let c1 = w.circuit.find("C1").unwrap();
//!
//! // Treat C1 as a symbol and compile a second-order model.
//! let model = SymbolicAwe::new(&w.circuit, w.input, w.output)
//!     .order(2)
//!     .symbol(SymbolBinding::capacitance("c1", vec![c1]))
//!     .compile()?;
//!
//! // Evaluate anywhere in the symbol space: identical to a full AWE run.
//! let rom = model.rom(&[2.2e-9])?;
//! assert!(rom.is_stable());
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | numeric substrate | `awesym-linalg`, `awesym-sparse` | complex/dense/sparse LA, polynomial roots |
//! | circuits | `awesym-circuit`, `awesym-mna` | netlists, parser, generators, MNA, DC/AC/transient |
//! | AWE | `awesym-awe` | moments, Padé, ROMs, AWEsensitivity |
//! | symbolic | `awesym-symbolic` | polynomials, rational forms, tape compiler |
//! | AWEsymbolic | `awesym-partition` | partitioning, symbolic moments, compiled models |
//! | serving | `awesym-serve` | `.awesym` artifacts, model registry, concurrent batch evaluation, NDJSON server |
//!
//! Everything is re-exported here; see [`prelude`].

#![forbid(unsafe_code)]

pub use awesym_awe::{
    delay_estimates, pade_rom, AweAnalysis, AweError, DelayEstimates, MomentEngine, Rom,
};
pub use awesym_circuit::{
    generators, parse_spice, parse_value, Circuit, Element, ElementId, ElementKind, Node,
};
pub use awesym_linalg::{Complex64, LinalgError, Poly};
pub use awesym_mna::{
    transient, IntegrationMethod, Mna, MnaError, Probe, TransientOptions, TransientResult, Waveform,
};
pub use awesym_nonlinear::{
    BjtParams, Device, DeviceBias, DiodeParams, NewtonOptions, NonlinearCircuit, NonlinearError,
    OperatingPoint,
};
pub use awesym_partition::{
    apply_symbol_values, exact, CompiledModel, ModelOptions, PartitionError, SymbolBinding,
    SymbolRole, SymbolicForms, SymbolicMoments, SymbolicSystem,
};
pub use awesym_serve::{
    evaluate_batch, load_artifact, save_artifact, BatchOutput, ModelRegistry, PointValue,
    PoolConfig, ServeError, Server, WorkerPool,
};
pub use awesym_symbolic::{
    AffineTail, CompileOptions, CompiledFn, Evaluator, ExprGraph, MPoly, OptLevel, Ratio, SymbolSet,
};
pub use awesym_timing::{
    BlockRng, ChainSpec, DelayMetric, GateChain, McConfig, McEngine, McReport, QuantileGrid,
    StageSpec,
};

pub mod cli;

/// Common imports for working with AWEsymbolic.
pub mod prelude {
    pub use crate::{
        generators, AweAnalysis, Circuit, CompiledModel, Element, ElementId, Node, Rom,
        SymbolBinding, SymbolRole, SymbolicAwe,
    };
}

use awesym_awe::sensitivity::SensitivityAnalysis;

/// Builder for a compiled symbolic AWE analysis.
///
/// Choose the symbols explicitly with [`SymbolicAwe::symbol`] /
/// [`SymbolicAwe::symbol_named`], or let AWEsensitivity pick the most
/// significant elements with [`SymbolicAwe::auto_symbols`], then call
/// [`SymbolicAwe::compile`].
///
/// # Example
///
/// ```
/// use awesymbolic::prelude::*;
///
/// # fn main() -> Result<(), awesymbolic::PartitionError> {
/// let amp = generators::opamp741();
/// let model = SymbolicAwe::new(&amp.circuit, amp.input, amp.output)
///     .order(2)
///     .symbol_named("g_out_q14", "ro_q14", SymbolRole::Conductance)?
///     .symbol_named("c_comp", "c_comp", SymbolRole::Capacitance)?
///     .compile()?;
/// assert_eq!(model.symbols().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SymbolicAwe<'c> {
    circuit: &'c Circuit,
    input: ElementId,
    output: Node,
    bindings: Vec<SymbolBinding>,
    order: usize,
    symbolic_moments: Option<usize>,
    opt_level: OptLevel,
}

impl<'c> SymbolicAwe<'c> {
    /// Starts a builder for the given circuit, input source, and output
    /// node. Default order is 2 (the paper's workhorse order).
    pub fn new(circuit: &'c Circuit, input: ElementId, output: Node) -> Self {
        SymbolicAwe {
            circuit,
            input,
            output,
            bindings: Vec::new(),
            order: 2,
            symbolic_moments: None,
            opt_level: OptLevel::Full,
        }
    }

    /// Sets the approximation order `q` (the model matches `2q` moments).
    pub fn order(mut self, q: usize) -> Self {
        self.order = q;
        self
    }

    /// Keeps only the first `k` moments symbolic and extends the rest with
    /// the derivative-based Taylor tail (the paper's partial Padé).
    pub fn partial_pade(mut self, symbolic_moments: usize) -> Self {
        self.symbolic_moments = Some(symbolic_moments);
        self
    }

    /// Sets the tape-optimization level (default [`OptLevel::Full`]).
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Adds an explicit symbol binding.
    pub fn symbol(mut self, binding: SymbolBinding) -> Self {
        self.bindings.push(binding);
        self
    }

    /// Adds a symbol bound to a single element looked up by name.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::BadBinding`] when no element has that
    /// name.
    pub fn symbol_named(
        mut self,
        symbol: &str,
        element: &str,
        role: SymbolRole,
    ) -> Result<Self, PartitionError> {
        let id = self
            .circuit
            .find(element)
            .ok_or_else(|| PartitionError::BadBinding {
                what: format!("no element named {element}"),
            })?;
        self.bindings.push(SymbolBinding {
            name: symbol.to_string(),
            role,
            elements: vec![id],
        });
        Ok(self)
    }

    /// Selects the `k` elements with the largest normalized pole
    /// sensitivities (AWEsensitivity) as symbols, skipping elements that
    /// cannot carry a symbol and elements already bound.
    ///
    /// # Errors
    ///
    /// Propagates AWE failures from the sensitivity analysis.
    pub fn auto_symbols(mut self, k: usize) -> Result<Self, PartitionError> {
        let ranked = rank_symbol_candidates(self.circuit, self.input, self.output, self.order)?;
        let bound: std::collections::HashSet<ElementId> = self
            .bindings
            .iter()
            .flat_map(|b| b.elements.iter().copied())
            .collect();
        let mut added = 0;
        for (id, _) in ranked {
            if added >= k {
                break;
            }
            if bound.contains(&id) {
                continue;
            }
            let e = self.circuit.element(id);
            let role = match e.kind {
                ElementKind::Resistor => SymbolRole::Conductance,
                ElementKind::Capacitor => SymbolRole::Capacitance,
                ElementKind::Inductor => SymbolRole::Inductance,
                ElementKind::Vccs => SymbolRole::Transconductance,
                _ => continue,
            };
            self.bindings.push(SymbolBinding {
                name: e.name.clone(),
                role,
                elements: vec![id],
            });
            added += 1;
        }
        Ok(self)
    }

    /// Compiles the model.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::build_with_options`].
    pub fn compile(self) -> Result<CompiledModel, PartitionError> {
        let mut opts = ModelOptions::order(self.order).with_opt_level(self.opt_level);
        if let Some(k) = self.symbolic_moments {
            opts = opts.with_symbolic_moments(k);
        }
        CompiledModel::build_with_options(
            self.circuit,
            self.input,
            self.output,
            &self.bindings,
            opts,
        )
    }
}

/// Ranks the non-source elements of a circuit by normalized pole
/// sensitivity — the paper's automatic symbol-selection mechanism.
///
/// # Errors
///
/// Propagates MNA/AWE failures.
pub fn rank_symbol_candidates(
    circuit: &Circuit,
    input: ElementId,
    output: Node,
    order: usize,
) -> Result<Vec<(ElementId, f64)>, PartitionError> {
    let mna = Mna::build(circuit).map_err(AweError::from)?;
    let engine = MomentEngine::new(mna, input, output)?;
    let sens = SensitivityAnalysis::new(&engine, order)?;
    Ok(sens.rank_elements(circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::fig1_rc;

    #[test]
    fn builder_with_explicit_symbols() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let model = SymbolicAwe::new(&w.circuit, w.input, w.output)
            .order(2)
            .symbol_named("c1", "C1", SymbolRole::Capacitance)
            .unwrap()
            .symbol_named("r2", "R2", SymbolRole::Resistance)
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(model.symbols().len(), 2);
        assert_eq!(model.order(), 2);
    }

    #[test]
    fn builder_rejects_unknown_element() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let r = SymbolicAwe::new(&w.circuit, w.input, w.output).symbol_named(
            "x",
            "nope",
            SymbolRole::Capacitance,
        );
        assert!(matches!(r, Err(PartitionError::BadBinding { .. })));
    }

    #[test]
    fn auto_symbols_selects_significant_elements() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let model = SymbolicAwe::new(&w.circuit, w.input, w.output)
            .order(2)
            .auto_symbols(2)
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(model.symbols().len(), 2);
        // The selected symbols reproduce the full analysis at nominal.
        let m = model.eval_moments(model.nominal());
        assert!((m[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_pade_option_wires_through() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c1 = w.circuit.find("C1").unwrap();
        let model = SymbolicAwe::new(&w.circuit, w.input, w.output)
            .order(2)
            .partial_pade(2)
            .symbol(SymbolBinding::capacitance("c1", vec![c1]))
            .compile()
            .unwrap();
        assert_eq!(model.eval_moments(&[1e-9]).len(), 4);
    }

    #[test]
    fn ranking_is_exposed() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let ranked = rank_symbol_candidates(&w.circuit, w.input, w.output, 2).unwrap();
        assert_eq!(ranked.len(), 4);
        assert!(ranked[0].1 >= ranked[3].1);
    }
}
