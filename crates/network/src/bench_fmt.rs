//! ISCAS `.bench` netlist format reading and writing.
//!
//! The format used by the ISCAS-85 combinational and ISCAS-89 sequential
//! benchmark suites:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G10 = NAND(G1, G3)
//! G17 = NOT(G10)
//! ```
//!
//! `DFF` registers are cut like BLIF latches: the register output becomes
//! a primary input, its data operand a primary output.

use std::collections::HashMap;
use std::fmt;

use crate::gate::GateKind;
use crate::network::{Network, NetworkError, NodeFunc, NodeId};

/// Error produced when `.bench` parsing fails.
#[derive(Debug)]
pub enum ParseBenchError {
    /// Syntax problem with a line.
    Syntax(usize, String),
    /// An unknown gate type.
    UnknownGate(usize, String),
    /// Construction failed.
    Network(NetworkError),
    /// A signal is used but never defined.
    Undefined(String),
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBenchError::Syntax(line, what) => {
                write!(f, "bench syntax at line {line}: {what}")
            }
            ParseBenchError::UnknownGate(line, g) => {
                write!(f, "bench unknown gate {g:?} at line {line}")
            }
            ParseBenchError::Network(e) => write!(f, "bench network error: {e}"),
            ParseBenchError::Undefined(n) => {
                write!(f, "bench signal {n:?} used but never defined")
            }
        }
    }
}

impl std::error::Error for ParseBenchError {}

impl From<NetworkError> for ParseBenchError {
    fn from(e: NetworkError) -> Self {
        ParseBenchError::Network(e)
    }
}

struct RawGate {
    output: String,
    kind: GateKind,
    inputs: Vec<String>,
    line: usize,
}

/// Parses an ISCAS `.bench` document.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on malformed input.
///
/// # Examples
///
/// ```
/// use xrta_network::parse_bench;
/// let net = parse_bench("
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// y = AND(a, b)
/// ")?;
/// assert_eq!(net.eval(&[true, true]), vec![true]);
/// # Ok::<(), xrta_network::ParseBenchError>(())
/// ```
pub fn parse_bench(text: &str) -> Result<Network, ParseBenchError> {
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut gates: Vec<RawGate> = Vec::new();

    for (lineno0, raw) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        let line = match raw.find('#') {
            Some(i) => raw[..i].trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("INPUT") {
            inputs.push(parse_paren_arg(line, lineno)?);
        } else if upper.starts_with("OUTPUT") {
            outputs.push(parse_paren_arg(line, lineno)?);
        } else if let Some(eq) = line.find('=') {
            let output = line[..eq].trim().to_string();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| {
                ParseBenchError::Syntax(lineno, format!("expected gate(...) in {rhs:?}"))
            })?;
            let close = rhs.rfind(')').ok_or_else(|| {
                ParseBenchError::Syntax(lineno, format!("missing ')' in {rhs:?}"))
            })?;
            let gate_name = rhs[..open].trim();
            let args: Vec<String> = rhs[open + 1..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if gate_name.eq_ignore_ascii_case("DFF") {
                // Register cut: output is a fresh PI, operand a fresh PO.
                inputs.push(output);
                let operand = args.into_iter().next().ok_or_else(|| {
                    ParseBenchError::Syntax(lineno, "DFF needs an operand".into())
                })?;
                outputs.push(operand);
            } else {
                let kind = GateKind::parse(gate_name)
                    .ok_or_else(|| ParseBenchError::UnknownGate(lineno, gate_name.to_string()))?;
                gates.push(RawGate {
                    output,
                    kind,
                    inputs: args,
                    line: lineno,
                });
            }
        } else {
            return Err(ParseBenchError::Syntax(
                lineno,
                format!("unrecognized line {line:?}"),
            ));
        }
    }

    let mut net = Network::new("bench");
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    for name in &inputs {
        let id = net.add_input(name.clone())?;
        ids.insert(name.clone(), id);
    }
    // Topological placement of gates.
    let index_of: HashMap<&str, usize> = gates
        .iter()
        .enumerate()
        .map(|(i, g)| (g.output.as_str(), i))
        .collect();
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; gates.len()];
    let mut order: Vec<usize> = Vec::new();
    for start in 0..gates.len() {
        if marks[start] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        marks[start] = Mark::Grey;
        while let Some(&(g, child)) = stack.last() {
            let gate = &gates[g];
            if child < gate.inputs.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let dep = &gate.inputs[child];
                if ids.contains_key(dep) {
                    continue;
                }
                match index_of.get(dep.as_str()) {
                    None => return Err(ParseBenchError::Undefined(dep.clone())),
                    Some(&d) => match marks[d] {
                        Mark::White => {
                            marks[d] = Mark::Grey;
                            stack.push((d, 0));
                        }
                        Mark::Grey => {
                            return Err(ParseBenchError::Network(NetworkError::Cyclic(dep.clone())))
                        }
                        Mark::Black => {}
                    },
                }
            } else {
                marks[g] = Mark::Black;
                order.push(g);
                stack.pop();
            }
        }
    }

    for &gi in &order {
        let gate = &gates[gi];
        let fanins: Vec<NodeId> = gate
            .inputs
            .iter()
            .map(|n| {
                ids.get(n)
                    .copied()
                    .ok_or_else(|| ParseBenchError::Undefined(n.clone()))
            })
            .collect::<Result<_, _>>()?;
        // Single-input AND/OR etc. degrade to BUF.
        let kind = match (gate.kind, fanins.len()) {
            (GateKind::And | GateKind::Or, 1) => GateKind::Buf,
            (GateKind::Nand | GateKind::Nor, 1) => GateKind::Not,
            (k, _) => k,
        };
        let id = net
            .add_gate(gate.output.clone(), kind, &fanins)
            .map_err(|e| match e {
                NetworkError::ArityMismatch { .. } => ParseBenchError::Syntax(
                    gate.line,
                    format!("bad arity for {} {}", gate.kind, gate.output),
                ),
                other => ParseBenchError::Network(other),
            })?;
        ids.insert(gate.output.clone(), id);
    }

    for name in &outputs {
        let id = ids
            .get(name)
            .copied()
            .ok_or_else(|| ParseBenchError::Undefined(name.clone()))?;
        net.mark_output(id);
    }
    Ok(net)
}

fn parse_paren_arg(line: &str, lineno: usize) -> Result<String, ParseBenchError> {
    let open = line
        .find('(')
        .ok_or_else(|| ParseBenchError::Syntax(lineno, format!("missing '(' in {line:?}")))?;
    let close = line
        .rfind(')')
        .ok_or_else(|| ParseBenchError::Syntax(lineno, format!("missing ')' in {line:?}")))?;
    let name = line[open + 1..close].trim();
    if name.is_empty() {
        return Err(ParseBenchError::Syntax(lineno, "empty signal name".into()));
    }
    Ok(name.to_string())
}

/// Serializes a network to `.bench` format.
///
/// Nodes built from arbitrary truth tables (no library kind) cannot be
/// expressed; they are emitted as comments and the caller should convert
/// first.
pub fn write_bench(net: &Network) -> String {
    let mut out = format!("# {}\n", net.name());
    for &i in net.inputs() {
        out.push_str(&format!("INPUT({})\n", net.node(i).name));
    }
    for &o in net.outputs() {
        out.push_str(&format!("OUTPUT({})\n", net.node(o).name));
    }
    for id in net.node_ids() {
        let n = net.node(id);
        if let NodeFunc::Gate { kind, .. } = &n.func {
            let args: Vec<&str> = n
                .fanins
                .iter()
                .map(|f| net.node(*f).name.as_str())
                .collect();
            match kind {
                Some(k) => out.push_str(&format!("{} = {}({})\n", n.name, k, args.join(", "))),
                None => out.push_str(&format!("# {} has a non-library function\n", n.name)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = "
# c17 (ISCAS-85 smallest benchmark)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    fn c17_reference(ins: &[bool]) -> (bool, bool) {
        let (g1, g2, g3, g6, g7) = (ins[0], ins[1], ins[2], ins[3], ins[4]);
        let g10 = !(g1 && g3);
        let g11 = !(g3 && g6);
        let g16 = !(g2 && g11);
        let g19 = !(g11 && g7);
        let g22 = !(g10 && g16);
        let g23 = !(g16 && g19);
        (g22, g23)
    }

    #[test]
    fn parse_c17_semantics() {
        let net = parse_bench(C17).unwrap();
        assert_eq!(net.inputs().len(), 5);
        assert_eq!(net.outputs().len(), 2);
        for m in 0..32u32 {
            let ins: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            let (e22, e23) = c17_reference(&ins);
            assert_eq!(net.eval(&ins), vec![e22, e23], "minterm {m}");
        }
    }

    #[test]
    fn zero_fanin_constants_parse() {
        let net = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nk = CONST1()\ny = AND(a, k)\nz = CONST0()\n",
        )
        .unwrap();
        assert_eq!(net.eval(&[true]), vec![true, false]);
        assert_eq!(net.eval(&[false]), vec![false, false]);
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(k)\nk = CONST0(a)\n"),
            Err(ParseBenchError::Syntax(3, _))
        ));
    }

    #[test]
    fn parse_out_of_order_definitions() {
        let net = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(t)\nt = BUF(a)\n").unwrap();
        assert_eq!(net.eval(&[true]), vec![false]);
    }

    #[test]
    fn dff_is_cut() {
        let net =
            parse_bench("INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ny = NOT(q)\n").unwrap();
        // q becomes an input, d an output.
        assert_eq!(net.inputs().len(), 2);
        assert_eq!(net.outputs().len(), 2);
        let out = net.eval(&[true, true]); // a=1, q=1
        assert_eq!(out, vec![false, true]); // y=!q, d=a&q
    }

    #[test]
    fn unknown_gate_rejected() {
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
            Err(ParseBenchError::UnknownGate(_, _))
        ));
    }

    #[test]
    fn undefined_signal_rejected() {
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"),
            Err(ParseBenchError::Undefined(_))
        ));
    }

    #[test]
    fn cycle_rejected() {
        assert!(matches!(
            parse_bench("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n"),
            Err(ParseBenchError::Network(NetworkError::Cyclic(_)))
        ));
    }

    #[test]
    fn roundtrip() {
        let net = parse_bench(C17).unwrap();
        let text = write_bench(&net);
        let reparsed = parse_bench(&text).unwrap();
        for m in 0..32u32 {
            let ins: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(net.eval(&ins), reparsed.eval(&ins));
        }
    }

    #[test]
    fn single_input_and_degrades_to_buf() {
        let net = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n").unwrap();
        assert_eq!(net.eval(&[true]), vec![true]);
        assert_eq!(net.eval(&[false]), vec![false]);
    }
}
