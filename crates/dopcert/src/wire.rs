//! The serve wire protocol: newline-delimited JSON, std-only.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream — `nc` is a full-featured client. The container bakes in
//! no third-party crates, so this module carries a deliberately small
//! JSON parser/printer (objects, arrays, strings with escapes, finite
//! numbers, booleans, null — no trailing commas, no comments) rather
//! than an external dependency.
//!
//! Request object:
//!
//! ```json
//! {"cmd": "prove", "id": 1, "tenant": "alice",
//!  "script": "table R(int); verify R == R;",
//!  "saturate": "fallback",
//!  "budget": {"iters": 24, "nodes": 10000, "oracle-calls": 64},
//!  "jobs": 2, "discover": false}
//! ```
//!
//! `cmd` is required: `check`, `prove`, `optimize`, `catalog`,
//! `discover`, `mine`, `stats`, `metrics`, `profile`, `trace`, or
//! `shutdown`. `script` is required for `check`/`prove`/`optimize`.
//! Everything else is optional; `id` is echoed back verbatim, `tenant`
//! names the budget-admission account (default `"default"`, at most 64
//! bytes). `mine`
//! takes optional `seed` and `count` integers; `optimize` accepts
//! `"mined-rules": true` to search with the daemon's mined catalog.
//! Budget knobs are validated by the same [`BudgetSpec`] the CLI flags
//! and script directives go through.
//!
//! Response object:
//!
//! ```json
//! {"id": 1, "ok": true, "kind": "goals",
//!  "lines": ["[ok] verify: ...\n    proved by ..."]}
//! ```
//!
//! `lines` are exactly the stdout lines the single-shot CLI prints for
//! the same request ([`Response::render`]); error responses carry
//! `"kind": "error"` and an `"error"` string instead; `stats`
//! responses add a `"stats"` object with the raw counters; `profile`
//! responses add a `"profile"` object mapping each attribution label
//! to its raw counters and histograms (losslessly — clients rebuild
//! the exact [`telemetry::Profile`]).

use crate::api::{KindLatency, Request, RequestOptions, Response, ServerStats};
use crate::prove::SaturateMode;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep insertion order irrelevant —
/// a sorted map keeps rendering deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The deepest array/object nesting [`parse_json`] accepts. The codec
/// itself never emits more than six levels; the cap keeps the recursive
/// parser's stack use bounded, so a hostile line such as 200 KB of `[`
/// gets an error instead of overflowing a daemon thread's stack.
const MAX_DEPTH: usize = 128;

/// The longest tenant name [`decode_request`] accepts. Clients choose
/// their tenant names and the daemon keeps an admission account per
/// name, so the cap bounds what one name can make it hold.
const MAX_TENANT_BYTES: usize = 64;

/// Parses one JSON value, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a position-annotated description of the first problem,
/// including nesting deeper than 128 levels.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(input, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parses the value at `pos`, which sits inside `depth` enclosing
/// arrays/objects.
fn parse_value(input: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(input, bytes, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(input, bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(input, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(input, bytes, pos).map(Json::Str),
        Some(b't') if input[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if input[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if input[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while let Some(b) = bytes.get(*pos) {
                if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    *pos += 1;
                } else {
                    break;
                }
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {start}"));
            }
            let text = &input[start..*pos];
            let n: f64 = text
                .parse()
                .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
            if !n.is_finite() {
                return Err(format!("non-finite number {text:?} at byte {start}"));
            }
            Ok(Json::Num(n))
        }
    }
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    let mut chars = input[*pos..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((j, 'u')) => {
                    let hex = input
                        .get(*pos + j + 1..*pos + j + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                    // Surrogate pairs are out of scope for this
                    // protocol (scripts are ASCII-leaning); lone
                    // surrogates map to the replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("invalid escape {other:?}")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

/// A decoded response line, as a client sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReply {
    /// The request's `id`, echoed (null when absent).
    pub id: Json,
    /// Whether every goal/plan/rule in the response passed.
    pub ok: bool,
    /// The response kind (`goals`, `plans`, `catalog`, `discovered`,
    /// `stats`, `error`).
    pub kind: String,
    /// The rendered CLI lines.
    pub lines: Vec<String>,
    /// The error message, for `kind == "error"`.
    pub error: Option<String>,
    /// The raw counters, for `kind == "stats"`.
    pub stats: Option<ServerStats>,
    /// The rebuilt attribution table, for `kind == "profile"`.
    pub profile: Option<telemetry::Profile>,
}

/// Decodes one request line into its id, tenant, and typed request.
///
/// # Errors
///
/// Returns a description of the malformed line — the daemon wraps it
/// in an error *response* rather than dropping the connection.
pub fn decode_request(line: &str) -> Result<(Json, String, Request), String> {
    let value = parse_json(line)?;
    if !matches!(value, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    let tenant = match value.get("tenant") {
        None => "default".to_owned(),
        Some(t) => {
            let t = t
                .as_str()
                .ok_or_else(|| "tenant must be a string".to_owned())?;
            if t.len() > MAX_TENANT_BYTES {
                return Err(format!("tenant name longer than {MAX_TENANT_BYTES} bytes"));
            }
            t.to_owned()
        }
    };
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a \"cmd\" string".to_owned())?;
    let opts = decode_options(&value)?;
    let script = || -> Result<String, String> {
        value
            .get("script")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{cmd:?} needs a \"script\" string"))
    };
    let req = match cmd {
        // `check` is `prove` at the library-default options, exactly
        // like the CLI subcommand.
        "check" => Request::Prove {
            script: script()?,
            opts: RequestOptions::default(),
        },
        "prove" => Request::Prove {
            script: script()?,
            opts,
        },
        "optimize" => Request::Optimize {
            script: script()?,
            opts,
        },
        "catalog" => Request::Catalog {
            discover: value
                .get("discover")
                .map(|v| v.as_bool().ok_or("discover must be a boolean"))
                .transpose()?
                .unwrap_or(false),
            opts,
        },
        "discover" => Request::Discover { opts },
        "mine" => {
            let defaults = mine::MineConfig::default();
            Request::Mine {
                seed: value
                    .get("seed")
                    .map(|v| {
                        v.as_usize()
                            .map(|n| n as u64)
                            .ok_or("seed must be a non-negative integer")
                    })
                    .transpose()?
                    .unwrap_or(defaults.seed),
                count: value
                    .get("count")
                    .map(|v| {
                        v.as_usize()
                            .filter(|&n| n > 0)
                            .ok_or("count must be a positive integer")
                    })
                    .transpose()?
                    .unwrap_or(defaults.max_rules),
            }
        }
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "profile" => Request::Profile,
        "trace" => Request::Trace,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown cmd {other:?}")),
    };
    Ok((id, tenant, req))
}

fn decode_options(value: &Json) -> Result<RequestOptions, String> {
    let mut opts = RequestOptions::default();
    if let Some(mode) = value.get("saturate") {
        opts.saturate = match mode.as_str() {
            Some("off") => SaturateMode::Off,
            Some("fallback") => SaturateMode::Fallback,
            Some("only") => SaturateMode::Only,
            _ => return Err("saturate must be \"off\", \"fallback\", or \"only\"".into()),
        };
    }
    if let Some(jobs) = value.get("jobs") {
        opts.jobs = Some(
            jobs.as_usize()
                .ok_or("jobs must be a non-negative integer")?,
        );
    }
    if let Some(mined) = value.get("mined-rules") {
        opts.mined_rules = mined.as_bool().ok_or("mined-rules must be a boolean")?;
    }
    if let Some(budget) = value.get("budget") {
        let Json::Obj(map) = budget else {
            return Err("budget must be an object".into());
        };
        for (knob, v) in map {
            let v = v
                .as_usize()
                .ok_or_else(|| format!("budget {knob} must be a non-negative integer"))?;
            // The same validation point as CLI flags and script
            // directives.
            opts.budget.set(knob, v)?;
        }
    }
    Ok(opts)
}

/// Encodes a typed request into one wire line (no trailing newline) —
/// the `dopcert request` client path.
pub fn encode_request(id: &Json, tenant: &str, req: &Request) -> String {
    let mut map = BTreeMap::new();
    if *id != Json::Null {
        map.insert("id".to_owned(), id.clone());
    }
    if tenant != "default" {
        map.insert("tenant".to_owned(), Json::Str(tenant.to_owned()));
    }
    let put_opts = |map: &mut BTreeMap<String, Json>, opts: &RequestOptions| {
        let defaults = RequestOptions::default();
        if opts.saturate != defaults.saturate {
            let mode = match opts.saturate {
                SaturateMode::Off => "off",
                SaturateMode::Fallback => "fallback",
                SaturateMode::Only => "only",
            };
            map.insert("saturate".to_owned(), Json::Str(mode.to_owned()));
        }
        if let Some(jobs) = opts.jobs {
            map.insert("jobs".to_owned(), Json::Num(jobs as f64));
        }
        if opts.mined_rules != defaults.mined_rules {
            map.insert("mined-rules".to_owned(), Json::Bool(opts.mined_rules));
        }
        if !opts.budget.is_empty() {
            let mut b = BTreeMap::new();
            for (knob, v) in [
                ("iters", opts.budget.iters),
                ("nodes", opts.budget.nodes),
                ("oracle-calls", opts.budget.oracle_calls),
            ] {
                if let Some(v) = v {
                    b.insert(knob.to_owned(), Json::Num(v as f64));
                }
            }
            map.insert("budget".to_owned(), Json::Obj(b));
        }
    };
    match req {
        Request::Prove { script, opts } | Request::Optimize { script, opts } => {
            map.insert("script".to_owned(), Json::Str(script.clone()));
            put_opts(&mut map, opts);
        }
        Request::Catalog { discover, opts } => {
            if *discover {
                map.insert("discover".to_owned(), Json::Bool(true));
            }
            put_opts(&mut map, opts);
        }
        Request::Discover { opts } => put_opts(&mut map, opts),
        Request::Mine { seed, count } => {
            map.insert("seed".to_owned(), Json::Num(*seed as f64));
            map.insert("count".to_owned(), Json::Num(*count as f64));
        }
        Request::Stats
        | Request::Metrics
        | Request::Profile
        | Request::Trace
        | Request::Shutdown => {}
    }
    map.insert("cmd".to_owned(), Json::Str(req.kind().to_owned()));
    Json::Obj(map).render()
}

/// Encodes a response into one wire line (no trailing newline).
pub fn encode_response(id: &Json, resp: &Response) -> String {
    let kind = match resp {
        Response::Goals(_) => "goals",
        Response::Plans(_) => "plans",
        Response::Catalog { .. } => "catalog",
        Response::Discovered(_) => "discovered",
        Response::Mined(_) => "mined",
        Response::Stats(_) => "stats",
        Response::Metrics(_) => "metrics",
        Response::Profile(_) => "profile",
        Response::Trace(_) => "trace",
        Response::Error(_) => "error",
    };
    let mut map = BTreeMap::new();
    map.insert("id".to_owned(), id.clone());
    map.insert("ok".to_owned(), Json::Bool(resp.ok()));
    map.insert("kind".to_owned(), Json::Str(kind.to_owned()));
    match resp {
        Response::Error(e) => {
            map.insert("error".to_owned(), Json::Str(e.clone()));
        }
        other => {
            map.insert(
                "lines".to_owned(),
                Json::Arr(other.render().into_iter().map(Json::Str).collect()),
            );
        }
    }
    if let Response::Stats(s) = resp {
        let mut counters = BTreeMap::new();
        for (k, v) in [
            ("workers", s.workers),
            ("requests", s.requests),
            ("ok", s.ok),
            ("errors", s.errors),
            ("budget-rejections", s.budget_rejections),
            ("goals", s.goals),
            ("memo-hits", s.memo_hits),
        ] {
            counters.insert(k.to_owned(), Json::Num(v as f64));
        }
        counters.insert("micros".to_owned(), Json::Num(s.micros as f64));
        if s.trace_dropped > 0 {
            counters.insert(
                "trace-dropped".to_owned(),
                Json::Num(s.trace_dropped as f64),
            );
        }
        if !s.memo_hits_by_worker.is_empty() {
            counters.insert(
                "memo-hits-by-worker".to_owned(),
                Json::Arr(
                    s.memo_hits_by_worker
                        .iter()
                        .map(|&h| Json::Num(h as f64))
                        .collect(),
                ),
            );
        }
        if !s.latency.is_empty() {
            counters.insert(
                "latency".to_owned(),
                Json::Arr(
                    s.latency
                        .iter()
                        .map(|l| {
                            let mut entry = BTreeMap::new();
                            entry.insert("kind".to_owned(), Json::Str(l.kind.clone()));
                            for (k, v) in [
                                ("count", l.count),
                                ("p50-us", l.p50_us),
                                ("p90-us", l.p90_us),
                                ("p99-us", l.p99_us),
                            ] {
                                entry.insert(k.to_owned(), Json::Num(v as f64));
                            }
                            Json::Obj(entry)
                        })
                        .collect(),
                ),
            );
        }
        map.insert("stats".to_owned(), Json::Obj(counters));
    }
    if let Response::Profile(profile) = resp {
        map.insert("profile".to_owned(), encode_profile(profile));
    }
    Json::Obj(map).render()
}

/// Encodes an attribution table losslessly: each label maps to its raw
/// counters and histograms, buckets sparse (only nonzero, keyed by
/// bucket index). [`decode_profile`] rebuilds the exact table.
fn encode_profile(profile: &telemetry::Profile) -> Json {
    let mut rows = BTreeMap::new();
    for (label, metrics) in profile.rows() {
        let mut row = BTreeMap::new();
        let counters: BTreeMap<String, Json> = metrics
            .counters()
            .map(|(name, v)| (name.to_owned(), Json::Num(v as f64)))
            .collect();
        if !counters.is_empty() {
            row.insert("counters".to_owned(), Json::Obj(counters));
        }
        let hists: BTreeMap<String, Json> = metrics
            .hists()
            .map(|(name, h)| {
                let mut entry = BTreeMap::new();
                for (k, v) in [
                    ("count", h.count()),
                    ("sum", h.sum()),
                    ("min", h.min()),
                    ("max", h.max()),
                ] {
                    entry.insert(k.to_owned(), Json::Num(v as f64));
                }
                let buckets: BTreeMap<String, Json> = h
                    .buckets()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(i, &n)| (i.to_string(), Json::Num(n as f64)))
                    .collect();
                entry.insert("buckets".to_owned(), Json::Obj(buckets));
                (name.to_owned(), Json::Obj(entry))
            })
            .collect();
        if !hists.is_empty() {
            row.insert("hists".to_owned(), Json::Obj(hists));
        }
        rows.insert(label.to_owned(), Json::Obj(row));
    }
    Json::Obj(rows)
}

/// Rebuilds a [`telemetry::Profile`] from its wire object. Tolerant of
/// absent sections (a row may carry only counters or only histograms);
/// malformed entries decode as zero rather than failing the reply.
fn decode_profile(value: &Json) -> telemetry::Profile {
    let mut profile = telemetry::Profile::new();
    let Json::Obj(rows) = value else {
        return profile;
    };
    let num = |v: &Json| match v {
        Json::Num(n) if *n >= 0.0 => *n as u64,
        _ => 0,
    };
    for (label, row) in rows {
        if let Some(Json::Obj(counters)) = row.get("counters") {
            for (name, v) in counters {
                profile.incr(label, name, num(v));
            }
        }
        if let Some(Json::Obj(hists)) = row.get("hists") {
            for (name, entry) in hists {
                let field = |k: &str| entry.get(k).map(&num).unwrap_or(0);
                let mut buckets = [0u64; telemetry::hist::BUCKETS];
                if let Some(Json::Obj(sparse)) = entry.get("buckets") {
                    for (idx, n) in sparse {
                        if let Ok(i) = idx.parse::<usize>() {
                            if i < buckets.len() {
                                buckets[i] = num(n);
                            }
                        }
                    }
                }
                let h = telemetry::Histogram::from_parts(
                    field("count"),
                    field("sum"),
                    field("min"),
                    field("max"),
                    buckets,
                );
                profile.merge_hist(label, name, &h);
            }
        }
    }
    profile
}

/// Decodes a response line — the client half of [`encode_response`].
///
/// # Errors
///
/// Returns a description of the malformed line.
pub fn decode_response(line: &str) -> Result<WireReply, String> {
    let value = parse_json(line)?;
    let ok = value
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("response needs an \"ok\" boolean")?;
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("response needs a \"kind\" string")?
        .to_owned();
    let lines = match value.get("lines") {
        None => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|l| l.as_str().map(str::to_owned).ok_or("lines must be strings"))
            .collect::<Result<_, _>>()?,
        Some(_) => return Err("lines must be an array".into()),
    };
    let error = value.get("error").and_then(Json::as_str).map(str::to_owned);
    let stats = value.get("stats").map(|s| {
        let count = |k: &str| s.get(k).and_then(Json::as_usize).unwrap_or(0);
        let memo_hits_by_worker = match s.get("memo-hits-by-worker") {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_usize).collect(),
            _ => Vec::new(),
        };
        let latency = match s.get("latency") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|entry| {
                    let num = |k: &str| entry.get(k).and_then(Json::as_usize).unwrap_or(0) as u64;
                    KindLatency {
                        kind: entry
                            .get("kind")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned(),
                        count: num("count"),
                        p50_us: num("p50-us"),
                        p90_us: num("p90-us"),
                        p99_us: num("p99-us"),
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        ServerStats {
            workers: count("workers"),
            requests: count("requests"),
            ok: count("ok"),
            errors: count("errors"),
            budget_rejections: count("budget-rejections"),
            goals: count("goals"),
            memo_hits: count("memo-hits"),
            micros: count("micros") as u128,
            memo_hits_by_worker,
            latency,
            trace_dropped: count("trace-dropped") as u64,
        }
    });
    let profile = value.get("profile").map(decode_profile);
    Ok(WireReply {
        id: value.get("id").cloned().unwrap_or(Json::Null),
        ok,
        kind,
        lines,
        error,
        stats,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let cases = [
            r#"{"a":1,"b":[true,false,null],"c":"x\ny"}"#,
            r#"[]"#,
            r#"{}"#,
            r#"-3.5"#,
            r#""A\"quoted\"""#,
        ];
        for case in cases {
            let parsed = parse_json(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            let rendered = parsed.render();
            assert_eq!(parse_json(&rendered).unwrap(), parsed, "{case}");
        }
        assert!(parse_json("{").is_err());
        assert!(parse_json("hello").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        assert!(parse_json("1e999").is_err(), "non-finite rejected");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // The daemon-killing line: 200 KB of `[` with no closers.
        let hostile = "[".repeat(200_000);
        let err = parse_json(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(decode_request(&hostile).is_err());
        let objects = format!(r#"{{"cmd":"stats","x":{}}}"#, "{\"a\":".repeat(MAX_DEPTH));
        assert!(decode_request(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn tenant_names_longer_than_the_cap_are_rejected() {
        let request = |tenant: &str| format!(r#"{{"cmd":"stats","tenant":"{tenant}"}}"#);
        let at_cap = "t".repeat(MAX_TENANT_BYTES);
        let (_, tenant, _) = decode_request(&request(&at_cap)).unwrap();
        assert_eq!(tenant, at_cap);
        let err = decode_request(&request(&"t".repeat(MAX_TENANT_BYTES + 1))).unwrap_err();
        assert!(err.contains("tenant name longer than 64 bytes"), "{err}");
    }

    #[test]
    fn retired_option_fields_decode_as_absent() {
        // Old clients still send `shared-cache` and `session`; they no
        // longer select anything, so the request decodes as if they
        // were absent.
        let base = r#"{"cmd":"prove","id":3,"jobs":2,"script":"x""#;
        let without = decode_request(&format!("{base}}}")).unwrap();
        for field in ["shared-cache", "session"] {
            for flag in ["true", "false"] {
                let with = decode_request(&format!(r#"{base},"{field}":{flag}}}"#)).unwrap();
                assert_eq!(with, without, "{field}: {flag}");
            }
        }
    }

    #[test]
    fn requests_round_trip_through_the_wire() {
        let mut opts = RequestOptions::default();
        opts.budget.set("iters", 40).unwrap();
        opts.saturate = SaturateMode::Only;
        opts.jobs = Some(2);
        let reqs = [
            Request::Prove {
                script: "table R(int);\nverify R == R;".into(),
                opts,
            },
            Request::Optimize {
                script: "table R(int);\nverify R == R;".into(),
                opts: RequestOptions::default(),
            },
            Request::Catalog {
                discover: true,
                opts: RequestOptions::default(),
            },
            Request::Discover {
                opts: RequestOptions::default(),
            },
            Request::Optimize {
                script: "table R(int);\nverify R == R;".into(),
                opts: RequestOptions {
                    mined_rules: true,
                    ..RequestOptions::default()
                },
            },
            Request::Mine { seed: 7, count: 4 },
            Request::Stats,
            Request::Metrics,
            Request::Profile,
            Request::Trace,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode_request(&Json::Num(7.0), "alice", &req);
            let (id, tenant, decoded) = decode_request(&line).unwrap();
            assert_eq!(id, Json::Num(7.0));
            assert_eq!(tenant, "alice");
            assert_eq!(decoded, req, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_described_not_crashed() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"cmd":"levitate"}"#,
            r#"{"cmd":"prove"}"#,
            r#"{"cmd":"prove","script":7}"#,
            r#"{"cmd":"prove","script":"x","budget":{"iters":0}}"#,
            r#"{"cmd":"prove","script":"x","budget":{"bogus":3}}"#,
            r#"{"cmd":"prove","script":"x","saturate":"sideways"}"#,
            r#"{"cmd":"prove","script":"x","jobs":-1}"#,
            r#"{"cmd":"mine","count":0}"#,
            r#"{"cmd":"mine","seed":-4}"#,
            r#"{"cmd":"optimize","script":"x","mined-rules":"yes"}"#,
        ] {
            assert!(decode_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn responses_round_trip_including_stats() {
        let resp = Response::Error("boom".into());
        let reply = decode_response(&encode_response(&Json::Null, &resp)).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.kind, "error");
        assert_eq!(reply.error.as_deref(), Some("boom"));

        let stats = ServerStats {
            workers: 2,
            requests: 5,
            ok: 4,
            errors: 1,
            budget_rejections: 0,
            goals: 9,
            memo_hits: 3,
            micros: 1000,
            memo_hits_by_worker: vec![1, 2],
            latency: vec![KindLatency {
                kind: "prove".into(),
                count: 4,
                p50_us: 10,
                p90_us: 20,
                p99_us: 30,
            }],
            trace_dropped: 7,
        };
        let reply = decode_response(&encode_response(
            &Json::Num(1.0),
            &Response::Stats(stats.clone()),
        ))
        .unwrap();
        assert_eq!(reply.stats, Some(stats.clone()));
        assert_eq!(reply.lines, Response::Stats(stats).render());
    }

    #[test]
    fn profile_responses_round_trip_losslessly() {
        let mut profile = telemetry::Profile::new();
        profile.incr("Distrib", "matches", 12);
        profile.incr("Distrib", "unions", 3);
        profile.incr("congruence", "unions", 5);
        profile.observe("Distrib", "apply_ns", 1_500);
        profile.observe("Distrib", "apply_ns", 40_000);
        profile.observe("session", "apply_ns", 9);
        let resp = Response::Profile(profile.clone());
        let reply = decode_response(&encode_response(&Json::Num(3.0), &resp)).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.kind, "profile");
        assert_eq!(reply.profile, Some(profile.clone()));
        assert_eq!(reply.lines, Response::Profile(profile).render());
    }

    #[test]
    fn trace_responses_carry_the_rendered_buffer() {
        let text = "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}";
        let reply =
            decode_response(&encode_response(&Json::Null, &Response::Trace(text.into()))).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.kind, "trace");
        assert_eq!(reply.lines, vec![text.to_owned()]);
    }

    #[test]
    fn metrics_responses_round_trip() {
        let text = "# TYPE dopcert_serve_requests counter\ndopcert_serve_requests 3\n";
        let resp = Response::Metrics(text.into());
        let reply = decode_response(&encode_response(&Json::Num(2.0), &resp)).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.kind, "metrics");
        assert_eq!(reply.lines.join("\n"), text.trim_end_matches('\n'));
    }
}
