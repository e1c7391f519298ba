//! Adder generators.
//!
//! The carry-skip (carry-bypass) adder is the canonical false-path
//! circuit: its longest topological path runs through every ripple
//! stage *and* the bypass muxes, but sensitizing it would require every
//! block's propagate signal to be both true (to ripple through) and
//! false (to not bypass) — impossible, so functional timing analysis
//! proves a much shorter true delay, and required times at the operand
//! inputs relax accordingly.

use xrta_network::{GateKind, Network, NetworkError, NodeId};

/// Builds an `n`-bit ripple-carry adder `s = a + b + cin`.
///
/// Inputs `a0..`, `b0..`, `cin`; outputs `s0..`, `cout`.
///
/// # Errors
///
/// Returns [`NetworkError`] on impossible widths (n = 0).
pub fn ripple_carry_adder(n: usize) -> Result<Network, NetworkError> {
    assert!(n > 0, "adder width must be positive");
    let mut net = Network::new(format!("rca{n}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")))
        .collect::<Result<_, _>>()?;
    let b: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("b{i}")))
        .collect::<Result<_, _>>()?;
    let cin = net.add_input("cin")?;
    let mut carry = cin;
    for i in 0..n {
        let p = net.add_gate(format!("p{i}"), GateKind::Xor, &[a[i], b[i]])?;
        let s = net.add_gate(format!("s{i}"), GateKind::Xor, &[p, carry])?;
        let g1 = net.add_gate(format!("cg{i}"), GateKind::And, &[a[i], b[i]])?;
        let g2 = net.add_gate(format!("cp{i}"), GateKind::And, &[p, carry])?;
        carry = net.add_gate(format!("c{}", i + 1), GateKind::Or, &[g1, g2])?;
        net.mark_output(s);
    }
    net.mark_output(carry);
    Ok(net)
}

/// Builds an `n`-bit carry-skip adder with blocks of `block` bits.
///
/// Each block ripples internally; a bypass MUX forwards the block's
/// carry-in straight to its carry-out when every bit of the block
/// propagates — creating classic false paths through the ripple chains.
///
/// # Errors
///
/// Returns [`NetworkError`] on construction failure.
///
/// # Panics
///
/// Panics if `block == 0` or `n == 0`.
pub fn carry_skip_adder(n: usize, block: usize) -> Result<Network, NetworkError> {
    assert!(n > 0 && block > 0, "width and block must be positive");
    let mut net = Network::new(format!("csk{n}x{block}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")))
        .collect::<Result<_, _>>()?;
    let b: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("b{i}")))
        .collect::<Result<_, _>>()?;
    let cin = net.add_input("cin")?;

    let mut block_cin = cin;
    let mut i = 0;
    let mut blk = 0;
    while i < n {
        let hi = (i + block).min(n);
        let mut carry = block_cin;
        let mut props: Vec<NodeId> = Vec::new();
        for j in i..hi {
            let p = net.add_gate(format!("p{j}"), GateKind::Xor, &[a[j], b[j]])?;
            props.push(p);
            let s = net.add_gate(format!("s{j}"), GateKind::Xor, &[p, carry])?;
            let g1 = net.add_gate(format!("cg{j}"), GateKind::And, &[a[j], b[j]])?;
            let g2 = net.add_gate(format!("cp{j}"), GateKind::And, &[p, carry])?;
            carry = net.add_gate(format!("c{}", j + 1), GateKind::Or, &[g1, g2])?;
            net.mark_output(s);
        }
        // Block propagate = AND of all bit propagates.
        let bp = if props.len() == 1 {
            net.add_gate(format!("bp{blk}"), GateKind::Buf, &[props[0]])?
        } else {
            net.add_gate(format!("bp{blk}"), GateKind::And, &props)?
        };
        // Skip mux: if the whole block propagates, forward block_cin.
        block_cin = net.add_gate(format!("skip{blk}"), GateKind::Mux, &[bp, carry, block_cin])?;
        i = hi;
        blk += 1;
    }
    net.mark_output(block_cin);
    Ok(net)
}

/// Builds an `n`-bit carry-select adder with blocks of `block` bits:
/// each block computes both carry-in-0 and carry-in-1 results and muxes
/// on the actual carry.
///
/// # Errors
///
/// Returns [`NetworkError`] on construction failure.
///
/// # Panics
///
/// Panics if `block == 0` or `n == 0`.
pub fn carry_select_adder(n: usize, block: usize) -> Result<Network, NetworkError> {
    assert!(n > 0 && block > 0, "width and block must be positive");
    let mut net = Network::new(format!("csel{n}x{block}"));
    let a: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("a{i}")))
        .collect::<Result<_, _>>()?;
    let b: Vec<NodeId> = (0..n)
        .map(|i| net.add_input(format!("b{i}")))
        .collect::<Result<_, _>>()?;
    let cin = net.add_input("cin")?;

    let mut carry = cin;
    let mut i = 0;
    let mut blk = 0;
    while i < n {
        let hi = (i + block).min(n);
        // Two speculative ripple chains with constant carry-in.
        let mut c0 = net.add_gate(format!("k0_{blk}"), GateKind::Const0, &[])?;
        let mut c1 = net.add_gate(format!("k1_{blk}"), GateKind::Const1, &[])?;
        let mut sums0 = Vec::new();
        let mut sums1 = Vec::new();
        for j in i..hi {
            let p = net.add_gate(format!("p{j}"), GateKind::Xor, &[a[j], b[j]])?;
            let s0 = net.add_gate(format!("s0_{j}"), GateKind::Xor, &[p, c0])?;
            let s1 = net.add_gate(format!("s1_{j}"), GateKind::Xor, &[p, c1])?;
            let g = net.add_gate(format!("g{j}"), GateKind::And, &[a[j], b[j]])?;
            let t0 = net.add_gate(format!("t0_{j}"), GateKind::And, &[p, c0])?;
            let t1 = net.add_gate(format!("t1_{j}"), GateKind::And, &[p, c1])?;
            c0 = net.add_gate(format!("c0_{}", j + 1), GateKind::Or, &[g, t0])?;
            c1 = net.add_gate(format!("c1_{}", j + 1), GateKind::Or, &[g, t1])?;
            sums0.push(s0);
            sums1.push(s1);
        }
        // Select on the incoming carry.
        for (j, (s0, s1)) in sums0.iter().zip(&sums1).enumerate() {
            let s = net.add_gate(format!("s{}", i + j), GateKind::Mux, &[carry, *s0, *s1])?;
            net.mark_output(s);
        }
        carry = net.add_gate(format!("c{blk}"), GateKind::Mux, &[carry, c0, c1])?;
        i = hi;
        blk += 1;
    }
    net.mark_output(carry);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_adder(net: &Network, n: usize) {
        // net inputs: a0..a(n-1), b0..b(n-1), cin; outputs s0.., cout.
        let limit = 1u64 << n;
        let cases: Vec<(u64, u64, u64)> = if n <= 3 {
            let mut v = Vec::new();
            for a in 0..limit {
                for b in 0..limit {
                    for c in 0..2 {
                        v.push((a, b, c));
                    }
                }
            }
            v
        } else {
            // Pseudo-random sample plus corner cases.
            let mut v = vec![
                (0, 0, 0),
                (limit - 1, 0, 1),
                (limit - 1, limit - 1, 1),
                (limit / 2, limit / 2 - 1, 0),
            ];
            let mut x = 0x243f6a8885a308d3u64;
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v.push((x % limit, (x >> 17) % limit, (x >> 40) & 1));
            }
            v
        };
        for (a, b, c) in cases {
            let mut ins = Vec::with_capacity(2 * n + 1);
            for i in 0..n {
                ins.push((a >> i) & 1 == 1);
            }
            for i in 0..n {
                ins.push((b >> i) & 1 == 1);
            }
            ins.push(c == 1);
            let out = net.eval(&ins);
            let total = a + b + c;
            for (i, &bit) in out.iter().take(n).enumerate() {
                assert_eq!(bit, (total >> i) & 1 == 1, "sum bit {i} of {a}+{b}+{c}");
            }
            assert_eq!(out[n], (total >> n) & 1 == 1, "cout of {a}+{b}+{c}");
        }
    }

    #[test]
    fn ripple_carry_correct() {
        for n in [1, 2, 3, 8] {
            let net = ripple_carry_adder(n).unwrap();
            check_adder(&net, n);
        }
    }

    #[test]
    fn carry_skip_correct() {
        for (n, blk) in [(2, 1), (3, 2), (4, 2), (8, 3)] {
            let net = carry_skip_adder(n, blk).unwrap();
            check_adder(&net, n);
        }
    }

    #[test]
    fn carry_select_correct() {
        for (n, blk) in [(2, 1), (4, 2), (8, 4)] {
            let net = carry_select_adder(n, blk).unwrap();
            check_adder(&net, n);
        }
    }

    /// `.bench` text round-trips constant nodes: `write_bench` emits
    /// them as zero-fanin `CONST0()`/`CONST1()` and `parse_bench` reads
    /// them back into the same function.
    #[test]
    fn carry_select_round_trips_through_bench() {
        use xrta_network::{parse_bench, write_bench};
        let net = carry_select_adder(4, 2).unwrap();
        let text = write_bench(&net);
        assert!(text.contains("= CONST0()") && text.contains("= CONST1()"));
        let back = parse_bench(&text).unwrap();
        assert_eq!(back.inputs().len(), net.inputs().len());
        assert_eq!(back.outputs().len(), net.outputs().len());
        check_adder(&back, 4);
        assert_eq!(
            write_bench(&back).lines().skip(1).collect::<Vec<_>>(),
            text.lines().skip(1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn carry_skip_has_false_paths() {
        use xrta_chi::{EngineKind, FunctionalTiming};
        use xrta_timing::{topological_delays, Time, UnitDelay};
        let net = carry_skip_adder(8, 4).unwrap();
        let cout = *net.outputs().last().unwrap();
        let topo = topological_delays(&net, &UnitDelay);
        let worst_topo = topo.iter().copied().max().unwrap();
        let ft = FunctionalTiming::new(
            &net,
            &UnitDelay,
            vec![Time::ZERO; net.inputs().len()],
            EngineKind::Sat,
        );
        let true_t = ft.true_arrival(cout);
        assert!(
            true_t < worst_topo,
            "carry-skip cout true delay {true_t} must beat topological {worst_topo}"
        );
    }
}
