//! Per-frame payload encodings.
//!
//! Payloads reuse the storage layer's codec ([`streamrel_storage::codec`])
//! so values, rows and schemas have exactly one binary representation in
//! the system — what the WAL writes is what the wire carries.
//!
//! | frame          | payload                                            |
//! |----------------|----------------------------------------------------|
//! | `Query`        | `str` SQL                                          |
//! | `Rows`         | relation                                           |
//! | `Subscribed`   | `u64` subscription id                              |
//! | `WindowResult` | `u64` subscription id, `i64` close, relation       |
//! | `Ingest`       | `str` stream, `u32` row count, rows                |
//! | `Heartbeat`    | `str` stream, `i64` event time (µs)                |
//! | `Attach`       | `u64` primary subscription id                      |
//! | `SubscribeFrom`| `str` stream, `i64` replay-after close (µs)        |
//! | `Error`        | `str` message                                      |
//! | `Goodbye`      | (empty)                                            |
//!
//! where `relation` = schema, `u32` row count, rows.

use std::sync::Arc;

use streamrel_cq::CqOutput;
use streamrel_storage::codec::{
    decode_row, decode_schema, encode_row, encode_schema, put_i64, put_str, put_u32, put_u64,
    Reader,
};
use streamrel_types::{Column, DataType, Error, Relation, Result, Row, Schema, Timestamp, Value};

// ---- relation -------------------------------------------------------------

/// Append a relation (schema + rows) to `buf`.
pub fn encode_relation(buf: &mut Vec<u8>, rel: &Relation) {
    encode_schema(buf, rel.schema());
    put_u32(buf, rel.len() as u32);
    for row in rel.rows() {
        encode_row(buf, row);
    }
}

/// Decode a relation.
pub fn decode_relation(r: &mut Reader<'_>) -> Result<Relation> {
    let schema = Arc::new(decode_schema(r)?);
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(Error::storage(format!("implausible relation size {n}")));
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(r)?);
    }
    Ok(Relation::new(schema, rows))
}

// ---- request payloads -----------------------------------------------------

/// `Query` payload.
pub fn encode_query(sql: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(sql.len() + 4);
    put_str(&mut buf, sql);
    buf
}

/// Decode a `Query` payload.
pub fn decode_query(payload: &[u8]) -> Result<String> {
    whole(payload, |r| r.str())
}

/// `Ingest` payload.
pub fn encode_ingest(stream: &str, rows: &[Row]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, stream);
    put_u32(&mut buf, rows.len() as u32);
    for row in rows {
        encode_row(&mut buf, row);
    }
    buf
}

/// Decode an `Ingest` payload into (stream, rows).
pub fn decode_ingest(payload: &[u8]) -> Result<(String, Vec<Row>)> {
    whole(payload, |r| {
        let stream = r.str()?;
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return Err(Error::storage(format!("implausible batch size {n}")));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(decode_row(r)?);
        }
        Ok((stream, rows))
    })
}

/// `Heartbeat` payload.
pub fn encode_heartbeat(stream: &str, ts: Timestamp) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, stream);
    put_i64(&mut buf, ts);
    buf
}

/// Decode a `Heartbeat` payload into (stream, event time).
pub fn decode_heartbeat(payload: &[u8]) -> Result<(String, Timestamp)> {
    whole(payload, |r| Ok((r.str()?, r.i64()?)))
}

// ---- response payloads ----------------------------------------------------

/// `Rows` payload.
pub fn encode_rows(rel: &Relation) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_relation(&mut buf, rel);
    buf
}

/// Decode a `Rows` payload.
pub fn decode_rows(payload: &[u8]) -> Result<Relation> {
    whole(payload, decode_relation)
}

/// `Subscribed` payload.
pub fn encode_subscribed(sub: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8);
    put_u64(&mut buf, sub);
    buf
}

/// Decode a `Subscribed` payload.
pub fn decode_subscribed(payload: &[u8]) -> Result<u64> {
    whole(payload, |r| r.u64())
}

/// `WindowResult` payload.
pub fn encode_window_result(sub: u64, out: &CqOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, sub);
    buf.extend_from_slice(&encode_window_body(out));
    buf
}

/// The subscriber-independent tail of a `WindowResult` payload: close
/// time + relation. With N subscribers on one CQ the server encodes
/// this **once** per closed window, reference-counts the bytes, and
/// prepends only the 8-byte subscription id per receiver — delivery
/// scales with subscribers, serialization with windows (the fan-out
/// path; `net.fanout.encodes` counts calls to this function).
pub fn encode_window_body(out: &CqOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    put_i64(&mut buf, out.close);
    encode_relation(&mut buf, &out.relation);
    buf
}

/// Decode a `WindowResult` payload into (subscription id, output).
pub fn decode_window_result(payload: &[u8]) -> Result<(u64, CqOutput)> {
    whole(payload, |r| {
        let sub = r.u64()?;
        let close = r.i64()?;
        let relation = decode_relation(r)?;
        Ok((sub, CqOutput { close, relation }))
    })
}

/// `Attach` payload: the primary subscription to join.
pub fn encode_attach(primary: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8);
    put_u64(&mut buf, primary);
    buf
}

/// Decode an `Attach` payload.
pub fn decode_attach(payload: &[u8]) -> Result<u64> {
    whole(payload, |r| r.u64())
}

/// `SubscribeFrom` payload: subscribe to a derived stream's windows,
/// replaying archived windows with `close > from` before live delivery.
/// `from == i64::MIN` requests live-only (nothing to resume).
pub fn encode_subscribe_from(stream: &str, from: Timestamp) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, stream);
    put_i64(&mut buf, from);
    buf
}

/// Decode a `SubscribeFrom` payload into (stream, replay-after close).
pub fn decode_subscribe_from(payload: &[u8]) -> Result<(String, Timestamp)> {
    whole(payload, |r| Ok((r.str()?, r.i64()?)))
}

/// `Error` payload.
pub fn encode_error(msg: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    put_str(&mut buf, msg);
    buf
}

/// Decode an `Error` payload.
pub fn decode_error(payload: &[u8]) -> Result<String> {
    whole(payload, |r| r.str())
}

// ---- statement acks -------------------------------------------------------

/// Non-row statement results (DDL, DML, ingest) travel as a one-row
/// `Rows` relation with this fixed shape, so the protocol needs no extra
/// frame types: `(tag text, detail text, n bigint)`.
pub fn ack_relation(tag: &str, detail: &str, n: i64) -> Relation {
    let schema = Arc::new(Schema::new_unchecked(vec![
        Column::new("tag", DataType::Text),
        Column::new("detail", DataType::Text),
        Column::new("n", DataType::Int),
    ]));
    Relation::new(
        schema,
        vec![vec![Value::text(tag), Value::text(detail), Value::Int(n)]],
    )
}

/// Parse an ack relation back into `(tag, detail, n)`; `None` if the
/// relation is a genuine result set rather than an ack.
pub fn parse_ack(rel: &Relation) -> Option<(String, String, i64)> {
    let cols = rel.schema().columns();
    if cols.len() != 3 || cols[0].name != "tag" || cols[1].name != "detail" || cols[2].name != "n" {
        return None;
    }
    let row = rel.rows().first()?;
    match (&row[0], &row[1], &row[2]) {
        (Value::Text(tag), Value::Text(detail), Value::Int(n)) => {
            Some((tag.to_string(), detail.to_string(), *n))
        }
        _ => None,
    }
}

/// Run a decoder over the full payload, rejecting trailing garbage.
fn whole<T>(payload: &[u8], f: impl FnOnce(&mut Reader<'_>) -> Result<T>) -> Result<T> {
    let mut r = Reader::new(payload);
    let v = f(&mut r)?;
    if r.remaining() != 0 {
        return Err(Error::storage(format!(
            "{} trailing bytes after payload",
            r.remaining()
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamrel_types::{Column, DataType, Schema, Value};

    fn rel() -> Relation {
        let schema = Arc::new(
            Schema::new(vec![
                Column::new("url", DataType::Text),
                Column::new("scnt", DataType::Int),
            ])
            .unwrap(),
        );
        Relation::new(
            schema,
            vec![
                vec![Value::text("/home"), Value::Int(3)],
                vec![Value::Null, Value::Int(0)],
            ],
        )
    }

    #[test]
    fn relation_round_trip() {
        let rel = rel();
        let payload = encode_rows(&rel);
        let got = decode_rows(&payload).unwrap();
        assert_eq!(got.rows(), rel.rows());
        assert_eq!(got.schema().len(), 2);
    }

    #[test]
    fn window_result_round_trip() {
        let out = CqOutput {
            close: 60_000_000,
            relation: rel(),
        };
        let (sub, got) = decode_window_result(&encode_window_result(7, &out)).unwrap();
        assert_eq!(sub, 7);
        assert_eq!(got.close, 60_000_000);
        assert_eq!(got.relation.rows(), out.relation.rows());
    }

    #[test]
    fn window_result_is_prefix_plus_shared_body() {
        // The fan-out path writes [sub id][shared body]; that
        // composition must be byte-identical to the monolithic encoding
        // the client decodes.
        let out = CqOutput {
            close: 60_000_000,
            relation: rel(),
        };
        let mut composed = encode_subscribed(7);
        composed.extend_from_slice(&encode_window_body(&out));
        assert_eq!(composed, encode_window_result(7, &out));
    }

    #[test]
    fn attach_round_trip() {
        assert_eq!(decode_attach(&encode_attach(99)).unwrap(), 99);
        let mut bad = encode_attach(99);
        bad.push(0);
        assert!(decode_attach(&bad).is_err());
    }

    #[test]
    fn subscribe_from_round_trip() {
        let (stream, from) =
            decode_subscribe_from(&encode_subscribe_from("urls_now", 60_000_000)).unwrap();
        assert_eq!(stream, "urls_now");
        assert_eq!(from, 60_000_000);
        // The live-only sentinel survives the codec.
        let (_, from) = decode_subscribe_from(&encode_subscribe_from("s", i64::MIN)).unwrap();
        assert_eq!(from, i64::MIN);
        let mut bad = encode_subscribe_from("s", 0);
        bad.push(0);
        assert!(decode_subscribe_from(&bad).is_err());
    }

    #[test]
    fn ingest_round_trip() {
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let (stream, got) = decode_ingest(&encode_ingest("events", &rows)).unwrap();
        assert_eq!(stream, "events");
        assert_eq!(got, rows);
    }

    #[test]
    fn heartbeat_and_error_round_trip() {
        assert_eq!(
            decode_heartbeat(&encode_heartbeat("s", 42)).unwrap(),
            ("s".to_string(), 42)
        );
        assert_eq!(decode_error(&encode_error("boom")).unwrap(), "boom");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_subscribed(1);
        payload.push(0xAB);
        assert!(decode_subscribed(&payload).is_err());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = encode_rows(&rel());
        assert!(decode_rows(&payload[..payload.len() - 3]).is_err());
    }
}
