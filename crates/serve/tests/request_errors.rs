//! Request-level responses pinned byte for byte.
//!
//! Every NDJSON request below has exactly one fault (or none, where it
//! exercises a lenient field), and its expected response is the byte
//! string the engine produced before requests were parsed into a typed
//! `Request`: parsing up front must not change a single-fault answer.
//! Requests with two faults may now report a different one of the two
//! than before, because shape errors are found while parsing — ahead of
//! admission, model lookup and the batch-size limit; that order is
//! pinned separately.

use awesym_serve::{Server, ServerConfig};

const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

/// `(request, response)`; `NET` in a request stands for the JSON string
/// of [`NETLIST`].
const SINGLE_FAULT: &[(&str, &str)] = &[
    (
        r#"not json at all"#,
        r#"{"ok":false,"error":"bad request: request is not JSON: invalid literal at byte 0","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"encoding":"binary-v2","id":1}"#,
        r#"{"ok":false,"id":1,"error":"bad request: unknown encoding 'binary-v2' (ndjson|binary-v1)","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"encoding":7}"#,
        r#"{"ok":false,"error":"bad request: 'encoding' must be a string (ndjson|binary-v1)","code":"bad_request"}"#,
    ),
    (
        r#"{"model":"m","points":[[1e-9,1e3]]}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'cmd'","code":"bad_request"}"#,
    ),
    (
        r#"[1,2,3]"#,
        r#"{"ok":false,"error":"bad request: missing string field 'cmd'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"frobnicate","id":5}"#,
        r#"{"ok":false,"id":5,"error":"bad request: unknown cmd 'frobnicate' (load|compile|save|eval|batch|stats|health|drain|shutdown)","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"encoding":"binary-v1","id":"x"}"#,
        r#"{"ok":false,"id":"x","error":"bad request: encoding 'binary-v1' only applies to cmd 'batch' (got 'eval')","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"stats","encoding":"binary-v1"}"#,
        r#"{"ok":false,"error":"bad request: encoding 'binary-v1' only applies to cmd 'batch' (got 'stats')","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"load","path":"/nonexistent/a.awesym"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'name'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"load","name":"x"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'path'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"load","name":"x","path":"/nonexistent/a.awesym"}"#,
        r#"{"ok":false,"error":"io error on /nonexistent/a.awesym: No such file or directory (os error 2)","code":"internal"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","input":"vin","output":"2"}"#,
        r#"{"ok":false,"error":"bad request: compile needs 'netlist' text or a 'path'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":"* t\nR1 a\n.end\n","input":"vin","output":"2"}"#,
        r#"{"ok":false,"error":"bad request: netlist: netlist parse error on line 2: expected 4 fields, found 2","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","netlist":NET,"input":"vin","output":"2"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'name'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","path":"/nonexistent/n.sp","input":"vin","output":"2"}"#,
        r#"{"ok":false,"error":"io error on /nonexistent/n.sp: No such file or directory (os error 2)","code":"internal"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":NET,"output":"2"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'input'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":NET,"input":"vx","output":"2"}"#,
        r#"{"ok":false,"error":"bad request: no element named vx","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":NET,"input":"vin"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'output'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":NET,"input":"vin","output":"zz"}"#,
        r#"{"ok":false,"error":"bad request: no node named zz","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":NET,"input":"vin","output":"2","symbols":["ZZ9"]}"#,
        r#"{"ok":false,"error":"bad request: no element named ZZ9","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":NET,"input":"vin","output":"2","symbols":["C1",5,"R2:r",null],"order":"two","id":[1,"a"]}"#,
        r#"{"ok":true,"id":[1,"a"],"name":"c","symbols":["C1","R2"],"order":2,"op_count":46,"raw_op_count":62,"opt_level":"full","shard":0}"#,
    ),
    (
        r#"{"cmd":"save","model":"m"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'path'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"save","path":"/nonexistent/x.awesym"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'model'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"save","model":"ghost","path":"/nonexistent/x.awesym"}"#,
        r#"{"ok":false,"error":"no model named 'ghost' in registry","code":"not_found"}"#,
    ),
    (
        r#"{"cmd":"save","model":"m","path":"/nonexistent/x.awesym"}"#,
        r#"{"ok":false,"error":"io error on /nonexistent/x.awesym: No such file or directory (os error 2)","code":"internal"}"#,
    ),
    (
        r#"{"cmd":"eval","values":[1e-9,1e3]}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'model'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":7,"values":[1e-9,1e3]}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'model'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"ghost","values":[1e-9,1e3]}"#,
        r#"{"ok":false,"error":"no model named 'ghost' in registry","code":"not_found"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m"}"#,
        r#"{"ok":false,"error":"bad request: missing 'values' array","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":5}"#,
        r#"{"ok":false,"error":"bad request: 'values' must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,"x"]}"#,
        r#"{"ok":false,"error":"bad request: 'values' must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,null]}"#,
        r#"{"ok":false,"error":"bad request: 'values' must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e999]}"#,
        r#"{"ok":false,"error":"bad request: 'values' has a non-finite value at index 1","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":"bogus"}"#,
        r#"{"ok":false,"error":"bad request: unknown kind 'bogus' (moments|rom|dc_gain|step|delays)","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"output":"bogus"}"#,
        r#"{"ok":false,"error":"bad request: unknown kind 'bogus' (moments|rom|dc_gain|step|delays)","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":"step"}"#,
        r#"{"ok":false,"error":"bad request: kind 'step' requires a 'times' array","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":"step","times":"soon"}"#,
        r#"{"ok":false,"error":"bad request: 'times' must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":"step","times":[1e-9,-1e999]}"#,
        r#"{"ok":false,"error":"bad request: 'times' has a non-finite value at index 1","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"deadline_ms":0,"id":9}"#,
        r#"{"ok":false,"id":9,"error":"request exceeded its 0 ms deadline","code":"deadline_exceeded"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9],"kind":"dc_gain"}"#,
        r#"{"ok":false,"error":"evaluation failed: point has 1 values, model has 2 symbols","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":"dc_gain","deadline_ms":"soon","workers":-3,"id":null}"#,
        r#"{"ok":true,"result":{"dc_gain":1e0}}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":5,"output":"dc_gain"}"#,
        r#"{"ok":true,"result":{"moments":[1e0,-3.0000000000000005e-6,8e-12,-2.1000000000000005e-17]}}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"output":"delays","encoding":"ndjson"}"#,
        r#"{"ok":true,"result":{"elmore":3.0000000000000005e-6,"ln2_elmore":2.079441541679836e-6,"d2m":2.2055808228042317e-6,"two_pole":2.224919162728718e-6}}"#,
    ),
    (
        r#"{"cmd":"eval","model":"m","values":[1e-9,1e3],"kind":"step","times":[0,1e-9,5e-9]}"#,
        r#"{"ok":true,"result":{"step":[0e0,4.99500333159611e-7,1.2437707787603825e-5]}}"#,
    ),
    (
        r#"{"cmd":"batch","points":[[1e-9,1e3]]}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'model'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"ghost","points":[[1e-9,1e3]]}"#,
        r#"{"ok":false,"error":"no model named 'ghost' in registry","code":"not_found"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m"}"#,
        r#"{"ok":false,"error":"bad request: missing 'points' array of arrays","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":{"a":1}}"#,
        r#"{"ok":false,"error":"bad request: missing 'points' array of arrays","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],5]}"#,
        r#"{"ok":false,"error":"bad request: each point must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3],[1e-9,1e3],[1e-9,1e3],[1e-9,1e3]]}"#,
        r#"{"ok":false,"error":"bad request: batch has 5 points, limit is 4","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e999,1e3]]}"#,
        r#"{"ok":false,"error":"bad request: each point has a non-finite value at index 0","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"bogus"}"#,
        r#"{"ok":false,"error":"bad request: unknown kind 'bogus' (moments|rom|dc_gain|step|delays)","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"step"}"#,
        r#"{"ok":false,"error":"bad request: kind 'step' requires a 'times' array","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"step","times":[1e999]}"#,
        r#"{"ok":false,"error":"bad request: 'times' has a non-finite value at index 0","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"kind":"rom","encoding":"binary-v1"}"#,
        r#"{"ok":false,"error":"bad request: kind 'rom' has no fixed-width binary layout; use \"encoding\":\"ndjson\"","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3]],"output":"rom","encoding":"binary-v1","id":{"k":1}}"#,
        r#"{"ok":false,"id":{"k":1},"error":"bad request: kind 'rom' has no fixed-width binary layout; use \"encoding\":\"ndjson\"","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"shutdown","id":"bye"}"#,
        r#"{"ok":true,"id":"bye","shutdown":true}"#,
    ),
];

/// Two-fault requests: the fault that parsing finds wins over one found
/// later (lookup, limit, netlist compilation); value checks (finite
/// symbols) still come after lookup and the limit.
const TWO_FAULTS: &[(&str, &str)] = &[
    (
        r#"{"cmd":"batch","model":"ghost","points":[[1e-9,1e3],"x"]}"#,
        r#"{"ok":false,"error":"bad request: each point must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"eval","model":"ghost","values":[1e-9,1e3],"kind":"bogus"}"#,
        r#"{"ok":false,"error":"bad request: unknown kind 'bogus' (moments|rom|dc_gain|step|delays)","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3],[1e-9,1e3],[1e-9,1e3],"x"]}"#,
        r#"{"ok":false,"error":"bad request: each point must be an array of numbers","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"compile","name":"c","netlist":"* t\nR1 a\n.end\n","output":"2"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'input'","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"ghost","points":[[1e-9,1e3]],"kind":"rom","encoding":"binary-v1"}"#,
        r#"{"ok":false,"error":"bad request: kind 'rom' has no fixed-width binary layout; use \"encoding\":\"ndjson\"","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"ghost","points":[[1e999,1e3]]}"#,
        r#"{"ok":false,"error":"no model named 'ghost' in registry","code":"not_found"}"#,
    ),
    (
        r#"{"cmd":"batch","model":"m","points":[[1e-9,1e3],[1e-9,1e3],[1e-9,1e3],[1e-9,1e3],[1e999,1e3]]}"#,
        r#"{"ok":false,"error":"bad request: batch has 5 points, limit is 4","code":"bad_request"}"#,
    ),
    (
        r#"{"cmd":"save","model":"ghost"}"#,
        r#"{"ok":false,"error":"bad request: missing string field 'path'","code":"bad_request"}"#,
    ),
];

/// A server holding model `m` (symbols `C1`, `R2:r`; order 2) with a
/// 4-point batch limit.
fn server() -> Server {
    let s = Server::with_config(ServerConfig {
        max_batch_points: 4,
        ..ServerConfig::default()
    });
    let compile = format!(
        r#"{{"cmd":"compile","name":"m","netlist":{},"input":"vin","output":"2","symbols":["C1","R2:r"],"order":2}}"#,
        serde_json::to_string(&NETLIST.to_string()).unwrap()
    );
    assert!(s
        .handle_line(&compile)
        .unwrap()
        .text()
        .starts_with(r#"{"ok":true"#));
    s
}

fn check(cases: &[(&str, &str)]) {
    let s = server();
    let net = serde_json::to_string(&NETLIST.to_string()).unwrap();
    for (req, want) in cases {
        let req = req.replace("NET", &net);
        let got = s.handle_line(&req).unwrap();
        assert_eq!(got.text(), *want, "request: {req}");
    }
}

#[test]
fn single_fault_requests_keep_their_response_bytes() {
    check(SINGLE_FAULT);
}

#[test]
fn two_fault_requests_report_the_first_fault_parsing_finds() {
    check(TWO_FAULTS);
}
