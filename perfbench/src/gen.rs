//! Seeded input generation: circuits sent as `compile` requests, the
//! in-process twin of every served model, and evaluation points.

use crate::util::Rng;
use crate::wire::json_line;
use awesym_circuit::generators::{self, CoupledLineSpec};
use awesym_circuit::{Circuit, ElementId, ElementKind, Node};
use awesym_partition::{CompiledModel, SymbolBinding};
use serde::Content;

/// A model the benchmark asks the server to compile, as the netlist text
/// and flags it sends.
#[derive(Clone)]
pub struct ModelSpec {
    pub name: String,
    pub shape: String,
    pub netlist: String,
    pub input: String,
    pub output: String,
    pub symbols: Vec<String>,
    pub order: usize,
}

/// The in-process twin of a served model, built exactly as the server's
/// `compile` command builds it.
pub struct Built {
    pub circuit: Circuit,
    pub input: ElementId,
    pub output: Node,
    pub bindings: Vec<SymbolBinding>,
    pub model: CompiledModel,
}

impl ModelSpec {
    fn from_circuit(
        name: &str,
        shape: String,
        c: &Circuit,
        input: ElementId,
        output: Node,
        symbols: Vec<String>,
        order: usize,
    ) -> Self {
        ModelSpec {
            name: name.to_string(),
            shape,
            netlist: c.to_spice(),
            input: c.element(input).name.clone(),
            output: c.node_name(output).to_string(),
            symbols,
            order,
        }
    }

    pub fn with_name(&self, name: &str) -> ModelSpec {
        ModelSpec {
            name: name.to_string(),
            ..self.clone()
        }
    }

    pub fn elements(&self) -> usize {
        self.netlist.lines().count().saturating_sub(2)
    }

    pub fn compile_line(&self, id: u64) -> String {
        json_line(vec![
            ("cmd", Content::Str("compile".into())),
            ("name", Content::Str(self.name.clone())),
            ("netlist", Content::Str(self.netlist.clone())),
            ("input", Content::Str(self.input.clone())),
            ("output", Content::Str(self.output.clone())),
            (
                "symbols",
                Content::Seq(self.symbols.iter().cloned().map(Content::Str).collect()),
            ),
            ("order", Content::U64(self.order as u64)),
            ("id", Content::U64(id)),
        ])
    }

    /// Parses and compiles in-process, mirroring `cmd_compile`.
    pub fn build(&self) -> Result<Built, String> {
        let circuit = awesym_circuit::parse_spice(&self.netlist).map_err(|e| e.to_string())?;
        let input = circuit.find(&self.input).ok_or("no input element")?;
        let output = circuit.find_node(&self.output).ok_or("no output node")?;
        let bindings = awesym_serve::resolve::resolve_symbol_specs(&circuit, &self.symbols)?;
        let model = CompiledModel::build(&circuit, input, output, &bindings, self.order)
            .map_err(|e| e.to_string())?;
        Ok(Built {
            circuit,
            input,
            output,
            bindings,
            model,
        })
    }
}

/// The section 3.1 linearized 741 op-amp, two symbols, order 2.
pub fn opamp741(name: &str) -> ModelSpec {
    let amp = generators::opamp741();
    ModelSpec::from_circuit(
        name,
        "opamp741".into(),
        &amp.circuit,
        amp.input,
        amp.output,
        vec!["ro_q14:g".into(), "c_comp:c".into()],
        2,
    )
}

/// A depth-4 binary RC tree with eight symbols: the R and C of every
/// branch on the path to the observed leaf.
pub fn rc_tree8(name: &str) -> ModelSpec {
    let w = generators::rc_tree(4, 50.0, 20e-15);
    let symbols = [1, 3, 7, 15]
        .iter()
        .flat_map(|k| [format!("Rt{k}"), format!("Ct{k}")])
        .collect();
    ModelSpec::from_circuit(
        name,
        "rc_tree_d4".into(),
        &w.circuit,
        w.input,
        w.output,
        symbols,
        2,
    )
}

/// Picks `k` distinct R/C elements as symbols (natural roles).
fn pick_symbols(rng: &mut Rng, c: &Circuit, k: usize) -> Vec<String> {
    let rc: Vec<&str> = c
        .elements()
        .iter()
        .filter(|e| matches!(e.kind, ElementKind::Resistor | ElementKind::Capacitor))
        .map(|e| e.name.as_str())
        .collect();
    let mut chosen: Vec<String> = Vec::new();
    while chosen.len() < k.min(rc.len()) {
        let name = rc[rng.range(0, rc.len() - 1)];
        if !chosen.iter().any(|s| s == name) {
            chosen.push(name.to_string());
        }
    }
    chosen
}

/// A seeded generated netlist: an RC tree, an RC ladder or a coupled
/// line pair, 50–2000 elements, 1–4 symbols, order 1–3. Draw `i` of `n`
/// is stratified: its size stratum, shape, symbol count and order follow
/// from `i`. Exact size and which elements are symbolic come from
/// `structure`, element values from `values`.
pub fn random_circuit(
    structure: &mut Rng,
    values: &mut Rng,
    name: &str,
    i: usize,
    n: usize,
) -> ModelSpec {
    let rng = structure;
    let target = 50.0 * 40f64.powf((i as f64 + rng.f64()) / n as f64);
    let symbols = 1 + i % 4;
    let order = 1 + (i / 4) % 3;
    let r = values.log_uniform(10.0, 200.0);
    let cap = values.log_uniform(5e-15, 100e-15);
    let (shape, c, input, output) = match i % 3 {
        0 => {
            // 2^(d+2) − 1 elements for depth d.
            let depth = ((target + 1.0).log2() - 2.0).round().clamp(4.0, 9.0) as usize;
            let w = generators::rc_tree(depth, r, cap);
            (format!("rc_tree_d{depth}"), w.circuit, w.input, w.output)
        }
        1 => {
            let n = ((target - 1.0) / 2.0).round().max(25.0) as usize;
            let w = generators::rc_ladder(n, r, cap);
            (format!("rc_ladder_{n}"), w.circuit, w.input, w.output)
        }
        _ => {
            let segments = (target / 5.0).round().max(10.0) as usize;
            let l = generators::coupled_lines(&CoupledLineSpec {
                segments,
                ..CoupledLineSpec::default()
            });
            let out = if rng.range(0, 1) == 0 {
                l.aggressor_out
            } else {
                l.victim_out
            };
            (format!("coupled_{segments}seg"), l.circuit, l.input, out)
        }
    };
    let syms = pick_symbols(rng, &c, symbols);
    ModelSpec::from_circuit(name, shape, &c, input, output, syms, order)
}

/// `n` points scattered log-uniformly within `[nominal/span, nominal·span]`.
pub fn points_around(rng: &mut Rng, nominal: &[f64], n: usize, span: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| nominal.iter().map(|&v| v * rng.factor(span)).collect())
        .collect()
}
