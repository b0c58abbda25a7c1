//! The correctness oracle: the in-process answer for every point the
//! benchmark sends, and bit-exact comparison with what came back.

use awesym_partition::CompiledModel;
use awesym_serve::encode::{encoder_for, BatchBody, ResponseBody};
use awesym_serve::{BatchOutput, PointValue, WireEncoding};
use serde::Content;

/// Output kinds the serving workloads request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Moments,
    Delays,
    Rom,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Moments => "moments",
            Kind::Delays => "delays",
            Kind::Rom => "rom",
        }
    }

    pub fn output(self) -> BatchOutput {
        match self {
            Kind::Moments => BatchOutput::Moments,
            Kind::Delays => BatchOutput::Delays,
            Kind::Rom => BatchOutput::Rom,
        }
    }
}

/// One point's answer, flattened to bit patterns (`None` = JSON null)
/// with array lengths inlined, or the point's error message.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Vals(Vec<Option<u64>>),
    Err(String),
}

const NON_FINITE: &str = "evaluation produced non-finite moments";

fn bits(v: f64) -> Option<u64> {
    v.is_finite().then(|| v.to_bits())
}

fn push_seq(out: &mut Vec<Option<u64>>, vals: impl ExactSizeIterator<Item = f64>) {
    out.push(Some(vals.len() as u64));
    out.extend(vals.map(bits));
}

/// The in-process answer, from the `CompiledModel` method that matches
/// the requested kind.
pub fn expect_point(model: &CompiledModel, kind: Kind, vals: &[f64]) -> Expect {
    let m = model.eval_moments(vals);
    if m.iter().any(|v| !v.is_finite()) {
        return Expect::Err(NON_FINITE.into());
    }
    match kind {
        Kind::Moments => Expect::Vals(m.iter().map(|&v| bits(v)).collect()),
        Kind::Delays => match model.delay_estimates(vals) {
            Ok(d) => Expect::Vals(vec![
                bits(d.elmore),
                bits(d.ln2_elmore),
                bits(d.d2m),
                d.two_pole.and_then(bits),
            ]),
            Err(_) => Expect::Err(
                awesym_awe::delay_estimates(&m)
                    .err()
                    .map_or_else(String::new, |e| e.to_string()),
            ),
        },
        Kind::Rom => match model.rom_degraded_from_moments(&m) {
            Ok((rom, degraded)) => {
                let mut out = Vec::new();
                push_seq(&mut out, rom.poles().iter().map(|p| p.re));
                push_seq(&mut out, rom.poles().iter().map(|p| p.im));
                push_seq(&mut out, rom.residues().iter().map(|k| k.re));
                push_seq(&mut out, rom.residues().iter().map(|k| k.im));
                out.push(bits(rom.dc_gain()));
                out.push(Some(u64::from(rom.is_stable())));
                out.push(rom.delay_50().and_then(bits));
                if let Some(d) = degraded {
                    out.push(Some(d.from_order as u64));
                    out.push(Some(d.to_order as u64));
                }
                Expect::Vals(out)
            }
            Err(e) => Expect::Err(e.to_string()),
        },
    }
}

fn num(c: Option<&Content>) -> Option<u64> {
    c.and_then(Content::as_f64).and_then(bits)
}

fn seq(out: &mut Vec<Option<u64>>, c: Option<&Content>) -> Option<()> {
    let s = c?.as_seq()?;
    out.push(Some(s.len() as u64));
    out.extend(s.iter().map(|v| num(Some(v))));
    Some(())
}

/// Flattens one NDJSON point object the same way as [`expect_point`].
pub fn flatten_point(kind: Kind, c: &Content) -> Option<Expect> {
    if let Some(e) = c.get("error") {
        return Some(Expect::Err(e.as_str()?.to_string()));
    }
    let mut out = Vec::new();
    match kind {
        Kind::Moments => {
            let s = c.get("moments")?.as_seq()?;
            out.extend(s.iter().map(|v| num(Some(v))));
        }
        Kind::Delays => {
            for k in ["elmore", "ln2_elmore", "d2m", "two_pole"] {
                out.push(num(c.get(k)));
            }
        }
        Kind::Rom => {
            for k in ["poles_re", "poles_im", "residues_re", "residues_im"] {
                seq(&mut out, c.get(k))?;
            }
            out.push(num(c.get("dc_gain")));
            out.push(Some(u64::from(c.get("stable")?.as_bool()?)));
            out.push(num(c.get("delay_50")));
            if let Some(d) = c.get("degraded") {
                out.push(d.get("from_order").and_then(Content::as_u64));
                out.push(d.get("to_order").and_then(Content::as_u64));
            }
        }
    }
    Some(Expect::Vals(out))
}

/// Checks an NDJSON `batch` reply against the expected points; returns
/// the number of mismatching points (a malformed reply counts them all).
pub fn check_batch_reply(reply: &Content, kind: Kind, expect: &[Expect]) -> usize {
    let Some(results) = reply.get("results").and_then(Content::as_seq) else {
        return expect.len().max(1);
    };
    if results.len() != expect.len() {
        return expect.len().max(1);
    }
    results
        .iter()
        .zip(expect)
        .filter(|(r, e)| flatten_point(kind, r).as_ref() != Some(e))
        .count()
}

/// The exact `AWSB` bytes the server must send for a moments batch,
/// produced by the program's own binary encoder from in-process moments
/// (the `elapsed_ns` header field, bytes 20..28, is not compared).
pub fn expected_awsb(model: &CompiledModel, points: &[Vec<f64>]) -> Vec<u8> {
    let ev = model.evaluator();
    let results = points
        .iter()
        .map(|p| {
            let mut m = vec![0.0; 2 * model.order()];
            ev.eval_into(p, &mut m);
            Ok(PointValue::Moments(m))
        })
        .collect::<Vec<_>>();
    let body = ResponseBody::Batch(BatchBody {
        head: Vec::new(),
        id: None,
        ok_count: results.len() as u64,
        results,
        cols: 2 * model.order(),
        elapsed_ns: 0,
        deadline_exceeded: false,
        deadline: None,
    });
    let mut out = Vec::new();
    encoder_for(WireEncoding::BinaryV1)
        .encode_response(&body, &mut out)
        .expect("encode expected frame");
    out
}

/// Bit-exact comparison of a received frame with the expected bytes.
pub fn frame_matches(got: &[u8], expect: &[u8]) -> bool {
    got.len() == expect.len() && got[..20] == expect[..20] && got[28..] == expect[28..]
}

/// Full structural check through the program's `decode_frame`: every
/// status byte zero and every column bit-identical to `eval_into`.
pub fn decode_matches(got: &[u8], model: &CompiledModel, points: &[Vec<f64>]) -> bool {
    let Ok(f) = awesym_serve::decode_frame(got) else {
        return false;
    };
    if f.count != points.len() || f.codes.iter().any(|&c| c != 0) {
        return false;
    }
    let ev = model.evaluator();
    let mut m = vec![0.0; 2 * model.order()];
    points.iter().enumerate().all(|(i, p)| {
        ev.eval_into(p, &mut m);
        m.iter()
            .enumerate()
            .all(|(c, v)| f.columns[c][i].to_bits() == v.to_bits())
    })
}
