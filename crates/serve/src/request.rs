//! The typed request both wire encodings parse to.
//!
//! An NDJSON line becomes a [`Request`] through [`Request::from_content`];
//! a binary-v1 `AWSQ` frame becomes one in `awesym_net::decode_request`.
//! The engine dispatches on [`Command`] alone, so both encodings share
//! everything after parsing. Parsing checks shape (required fields, types,
//! known names, encoding negotiation); checks that need the server (model
//! lookup, the batch-size limit, finite symbol values) run when the
//! command executes. Optional numeric fields are read leniently: a
//! `deadline_ms`, `workers` or `order` that is not a non-negative integer
//! is ignored, as is a non-string entry of `symbols`.

use crate::batch::BatchOutput;
use crate::encode::WireEncoding;
use crate::ServeError;
use serde::Content;

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The correlation id echoed in the response (a JSON `null` is absent).
    pub id: Option<Content>,
    /// What the request asks for.
    pub command: Command,
}

/// A request's command with its typed arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `load`: read the artifact at `path` into the registry as `name`.
    Load { name: String, path: String },
    /// `compile`: build a model from a netlist and register it.
    Compile(CompileRequest),
    /// `save`: write registered `model` to `path` as an artifact.
    Save { model: String, path: String },
    /// `eval`: evaluate one point (`deadline_ms` overrides the server
    /// default).
    Eval {
        model: String,
        values: Vec<f64>,
        output: BatchOutput,
        deadline_ms: Option<u64>,
    },
    /// `batch`: evaluate many points.
    Batch(BatchRequest),
    /// `stats`: report counters.
    Stats,
    /// `health`: readiness probe.
    Health,
    /// `drain`: stop admitting evaluation work.
    Drain,
    /// `shutdown`: acknowledge and stop the serve loop.
    Shutdown,
}

/// Where a `compile` request's netlist comes from: inline SPICE text
/// (`"netlist"`) or a file (`"path"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistSource {
    /// Inline SPICE text.
    Text(String),
    /// A file to read.
    Path(String),
}

/// The arguments of a `compile` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest {
    /// Registry name for the model.
    pub name: String,
    /// The netlist.
    pub netlist: NetlistSource,
    /// Input source element name.
    pub input: String,
    /// Output node name.
    pub output: String,
    /// Symbol specs (`"C1"`, `"R2:r"`, …).
    pub symbols: Vec<String>,
    /// Approximation order (default 2).
    pub order: usize,
}

/// The arguments of a `batch` request.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// Registered model name.
    pub model: String,
    /// One row of symbol values per point.
    pub points: Vec<Vec<f64>>,
    /// What to compute for each point.
    pub output: BatchOutput,
    /// Per-request deadline, overriding the server default.
    pub deadline_ms: Option<u64>,
    /// Most pool workers to use (at least 1); `None` = all.
    pub workers: Option<usize>,
    /// Response encoding.
    pub encoding: WireEncoding,
}

fn bad(what: impl Into<String>) -> ServeError {
    ServeError::BadRequest { what: what.into() }
}

fn need_str(req: &Content, key: &str) -> Result<String, ServeError> {
    req.get(key)
        .and_then(Content::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string field '{key}'")))
}

fn opt_u64(req: &Content, key: &str) -> Option<u64> {
    req.get(key).and_then(Content::as_u64)
}

fn numbers(c: &Content, what: &str) -> Result<Vec<f64>, ServeError> {
    c.as_seq()
        .and_then(|s| s.iter().map(Content::as_f64).collect::<Option<Vec<f64>>>())
        .ok_or_else(|| bad(format!("{what} must be an array of numbers")))
}

/// The request's `"id"`, with `null` read as absent.
pub(crate) fn id_of(req: &Content) -> Option<Content> {
    req.get("id").filter(|id| !id.is_null()).cloned()
}

/// Resolves the `"encoding"` field; absent means NDJSON.
fn negotiate(req: &Content) -> Result<WireEncoding, ServeError> {
    match req.get("encoding").map(Content::as_str) {
        None | Some(Some("ndjson")) => Ok(WireEncoding::Ndjson),
        Some(Some("binary-v1")) => Ok(WireEncoding::BinaryV1),
        Some(Some(other)) => Err(bad(format!(
            "unknown encoding '{other}' (ndjson|binary-v1)"
        ))),
        Some(None) => Err(bad("'encoding' must be a string (ndjson|binary-v1)")),
    }
}

fn output_of(req: &Content) -> Result<BatchOutput, ServeError> {
    // `kind` is the documented name; `output` is accepted as an alias so a
    // natural guess does not silently fall back to the moments default.
    let kind = req
        .get("kind")
        .or_else(|| req.get("output"))
        .and_then(Content::as_str)
        .unwrap_or("moments");
    match kind {
        "moments" => Ok(BatchOutput::Moments),
        "rom" => Ok(BatchOutput::Rom),
        "dc_gain" => Ok(BatchOutput::DcGain),
        "delays" => Ok(BatchOutput::Delays),
        "step" => {
            let times = req
                .get("times")
                .ok_or_else(|| bad("kind 'step' requires a 'times' array"))?;
            Ok(BatchOutput::Step {
                times: numbers(times, "'times'")?,
            })
        }
        other => Err(bad(format!(
            "unknown kind '{other}' (moments|rom|dc_gain|step|delays)"
        ))),
    }
}

fn compile_of(req: &Content) -> Result<CompileRequest, ServeError> {
    let name = need_str(req, "name")?;
    let netlist = match req.get("netlist").and_then(Content::as_str) {
        Some(text) => NetlistSource::Text(text.to_string()),
        None => NetlistSource::Path(
            need_str(req, "path").map_err(|_| bad("compile needs 'netlist' text or a 'path'"))?,
        ),
    };
    Ok(CompileRequest {
        name,
        netlist,
        input: need_str(req, "input")?,
        output: need_str(req, "output")?,
        symbols: req
            .get("symbols")
            .and_then(Content::as_seq)
            .map(|s| {
                s.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default(),
        order: opt_u64(req, "order").map_or(2, |v| v as usize),
    })
}

fn batch_of(req: &Content, encoding: WireEncoding) -> Result<BatchRequest, ServeError> {
    let model = need_str(req, "model")?;
    let points = req
        .get("points")
        .and_then(Content::as_seq)
        .ok_or_else(|| bad("missing 'points' array of arrays"))?
        .iter()
        .map(|p| numbers(p, "each point"))
        .collect::<Result<_, _>>()?;
    let output = output_of(req)?;
    // The binary frame carries a fixed number of f64 columns per point.
    if output == BatchOutput::Rom && encoding == WireEncoding::BinaryV1 {
        return Err(bad(
            "kind 'rom' has no fixed-width binary layout; use \"encoding\":\"ndjson\"",
        ));
    }
    Ok(BatchRequest {
        model,
        points,
        output,
        deadline_ms: opt_u64(req, "deadline_ms"),
        workers: opt_u64(req, "workers").map(|v| (v as usize).max(1)),
        encoding,
    })
}

impl Request {
    /// Reads a request from a parsed NDJSON line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the first missing, mistyped or
    /// unknown field, checked in order: encoding, `cmd`, then the
    /// command's own fields.
    pub fn from_content(req: &Content) -> Result<Request, ServeError> {
        let encoding = negotiate(req)?;
        let cmd = req
            .get("cmd")
            .and_then(Content::as_str)
            .ok_or_else(|| bad("missing string field 'cmd'"))?;
        if encoding == WireEncoding::BinaryV1 && cmd != "batch" {
            return Err(bad(format!(
                "encoding 'binary-v1' only applies to cmd 'batch' (got '{cmd}')"
            )));
        }
        let command = match cmd {
            "load" => Command::Load {
                name: need_str(req, "name")?,
                path: need_str(req, "path")?,
            },
            "compile" => Command::Compile(compile_of(req)?),
            "save" => Command::Save {
                path: need_str(req, "path")?,
                model: need_str(req, "model")?,
            },
            "eval" => Command::Eval {
                model: need_str(req, "model")?,
                values: numbers(
                    req.get("values")
                        .ok_or_else(|| bad("missing 'values' array"))?,
                    "'values'",
                )?,
                output: output_of(req)?,
                deadline_ms: opt_u64(req, "deadline_ms"),
            },
            "batch" => Command::Batch(batch_of(req, encoding)?),
            "stats" => Command::Stats,
            "health" => Command::Health,
            "drain" => Command::Drain,
            "shutdown" => Command::Shutdown,
            other => {
                return Err(bad(format!(
                    "unknown cmd '{other}' \
                     (load|compile|save|eval|batch|stats|health|drain|shutdown)"
                )))
            }
        };
        Ok(Request {
            id: id_of(req),
            command,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorCode;

    fn parse(line: &str) -> Result<Request, ServeError> {
        Request::from_content(&serde_json::from_str(line).unwrap())
    }

    #[test]
    fn negotiation_rules() {
        let enc = |line: &str| match parse(line).map(|r| r.command) {
            Ok(Command::Batch(b)) => Ok(b.encoding),
            Ok(other) => panic!("{other:?}"),
            Err(e) => Err(e),
        };
        let batch = r#"{"cmd":"batch","model":"m","points":[]"#;
        assert_eq!(enc(&format!("{batch}}}")).unwrap(), WireEncoding::Ndjson);
        assert_eq!(
            enc(&format!(r#"{batch},"encoding":"ndjson"}}"#)).unwrap(),
            WireEncoding::Ndjson
        );
        assert_eq!(
            enc(&format!(r#"{batch},"encoding":"binary-v1"}}"#)).unwrap(),
            WireEncoding::BinaryV1
        );
        for bad in [r#""encoding":"binary-v2""#, r#""encoding":42"#] {
            let e = enc(&format!("{batch},{bad}}}")).unwrap_err();
            assert_eq!(e.code(), ErrorCode::BadRequest, "{bad}");
            assert!(e.to_string().contains("ndjson|binary-v1"), "{e}");
        }
    }

    #[test]
    fn lenient_optional_fields_are_ignored_not_rejected() {
        let r = parse(
            r#"{"cmd":"batch","model":"m","points":[[1,2.5]],"output":"dc_gain",
                "deadline_ms":-1,"workers":"many","id":null}"#,
        )
        .unwrap();
        assert_eq!(r.id, None);
        assert_eq!(
            r.command,
            Command::Batch(BatchRequest {
                model: "m".into(),
                points: vec![vec![1.0, 2.5]],
                output: BatchOutput::DcGain,
                deadline_ms: None,
                workers: None,
                encoding: WireEncoding::Ndjson,
            })
        );
        // `workers: 0` still means one worker; a non-string `kind` is the
        // moments default, not a fall-through to `output`.
        let r =
            parse(r#"{"cmd":"batch","model":"m","points":[],"workers":0,"kind":5,"output":"rom"}"#)
                .unwrap();
        let Command::Batch(b) = r.command else {
            panic!("batch")
        };
        assert_eq!(b.workers, Some(1));
        assert_eq!(b.output, BatchOutput::Moments);
        let r = parse(
            r#"{"cmd":"compile","name":"c","netlist":"x","path":"p","input":"vin",
                "output":"2","symbols":["C1",7,null,"R2:r"],"order":"two"}"#,
        )
        .unwrap();
        assert_eq!(
            r.command,
            Command::Compile(CompileRequest {
                name: "c".into(),
                netlist: NetlistSource::Text("x".into()),
                input: "vin".into(),
                output: "2".into(),
                symbols: vec!["C1".into(), "R2:r".into()],
                order: 2,
            })
        );
    }
}
