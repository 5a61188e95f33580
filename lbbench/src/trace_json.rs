//! Parsing a trial's trace JSON back into an `LbTrace`, one array item
//! at a time.
//!
//! The `serde_json` shim's string parser re-validates the rest of its
//! input as UTF-8 for every character it reads, so one `from_str` over a
//! whole trace is quadratic in the trace's length (a 9024-round clique
//! trace takes minutes). Parsing each item of the two long arrays on its
//! own keeps every input short, and the assembled trace is the same.

use local_broadcast::LbTrace;

/// The long per-event and per-round arrays of a serialized trace.
const LONG_FIELDS: [&str; 2] = ["events", "round_stats"];

/// Splits the top-level array `"field":[...]` out of compact JSON:
/// returns the JSON with that array emptied, and the array's items.
fn split_array<'a>(json: &'a str, field: &str) -> Result<(String, Vec<&'a str>), String> {
    let key = format!("\"{field}\":[");
    let open = json.find(&key).ok_or(format!("no {field} array"))? + key.len();
    let bytes = json.as_bytes();
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let (mut items, mut start) = (Vec::new(), open);
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => depth += 1,
            b']' if depth == 0 => {
                if i > start {
                    items.push(&json[start..i]);
                }
                return Ok((format!("{}{}", &json[..open], &json[i..]), items));
            }
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                items.push(&json[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    Err(format!("unterminated {field} array"))
}

fn parse<T: serde::DeserializeOwned>(json: &str) -> Result<T, String> {
    serde_json::from_str(json).map_err(|e| format!("trace JSON: {e:?}"))
}

/// Parses a trace serialized by `ScenarioRunner::trial_trace_json`.
pub fn parse_lb_trace(json: &str) -> Result<LbTrace, String> {
    let (rest, events) = split_array(json, LONG_FIELDS[0])?;
    let (rest, stats) = split_array(&rest, LONG_FIELDS[1])?;
    let mut trace: LbTrace = parse(&rest)?;
    trace.events = events.into_iter().map(parse).collect::<Result<_, _>>()?;
    trace.round_stats = stats.into_iter().map(parse).collect::<Result<_, _>>()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_top_level_items_only() {
        let json = r#"{"a":1,"events":[{"x":[1,2]},{"s":"],\"{"}],"b":2}"#;
        let (rest, items) = split_array(json, "events").unwrap();
        assert_eq!(rest, r#"{"a":1,"events":[],"b":2}"#);
        assert_eq!(items, vec![r#"{"x":[1,2]}"#, r#"{"s":"],\"{"}"#]);
        let (_, none) = split_array(r#"{"events":[]}"#, "events").unwrap();
        assert!(none.is_empty());
    }
}
