//! The correctness gate: every response is parsed and checked, a seeded
//! sample is byte-compared with offline extraction, and anything wrong or
//! missing counts as a failed operation.

use crate::inputs::Item;
use ner_text::EntitySpan;
use serde::Value;
use std::time::Instant;

/// One request of the measured phase, as the generator saw it.
pub struct Sent {
    /// Index of the input in the run's item list.
    pub item: usize,
    /// When the request was due to be sent.
    pub due: Instant,
    /// When its bytes were handed to the socket.
    pub sent: Instant,
    /// When its response was complete; `None` if it never arrived.
    pub done: Option<Instant>,
    /// HTTP status of the response (0 before one arrives).
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// What the gate concluded about a measured phase.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Per request: answered, well-formed and matching.
    pub ok: Vec<bool>,
    /// Requests without a response.
    pub unanswered: usize,
    /// Responses with a status other than 200.
    pub bad_status: usize,
    /// 200s whose body is not the extraction JSON.
    pub malformed: usize,
    /// 200s whose tokens, or sampled bytes, differ from the reference.
    pub divergent: usize,
    /// Responses byte-compared with offline extraction.
    pub sampled: usize,
    /// Per request: tokens served, zero unless the request passed.
    pub tokens: Vec<usize>,
    /// Correct responses left out of F1 because the text's tokenization
    /// does not give back the generator's tokens.
    pub f1_excluded: usize,
    /// Gold spans of the F1-scored responses.
    pub golds: Vec<Vec<EntitySpan>>,
    /// Served spans of the F1-scored responses.
    pub preds: Vec<Vec<EntitySpan>>,
}

impl Verdict {
    /// Failed operations: unanswered, refused, malformed or divergent.
    pub fn failed(&self) -> usize {
        self.unanswered + self.bad_status + self.malformed + self.divergent
    }
}

/// Decodes an extraction response body into its tokens and spans.
fn decode(body: &[u8]) -> Option<(Vec<String>, Vec<EntitySpan>)> {
    let v: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let tokens = v
        .get("tokens")?
        .as_array()?
        .iter()
        .map(|t| t.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()?;
    v.get("render")?.as_str()?;
    let spans = v
        .get("entities")?
        .as_array()?
        .iter()
        .map(|e| {
            let start = e.get("start")?.as_f64()? as usize;
            let end = e.get("end")?.as_f64()? as usize;
            let label = e.get("label")?.as_str()?.to_string();
            (start < end && end <= tokens.len()).then_some(EntitySpan { start, end, label })
        })
        .collect::<Option<Vec<_>>>()?;
    Some((tokens, spans))
}

/// Checks every request. `sample(i)` picks the requests whose bodies are
/// byte-compared with `expected(item)`.
pub fn check(
    items: &[Item],
    sent: &[Sent],
    sample: impl Fn(usize) -> bool,
    mut expected: impl FnMut(usize) -> String,
) -> Verdict {
    let mut v = Verdict::default();
    for (i, s) in sent.iter().enumerate() {
        let item = &items[s.item];
        let served = if s.done.is_none() {
            v.unanswered += 1;
            None
        } else if s.status != 200 {
            v.bad_status += 1;
            None
        } else if let Some((tokens, spans)) = decode(&s.body) {
            let mut same = tokens == ner_text::tokenize::tokenize(&item.text);
            if same && sample(i) {
                v.sampled += 1;
                same = s.body == expected(s.item).as_bytes();
            }
            if !same {
                v.divergent += 1;
            } else if let Some(gold) = &item.gold {
                v.golds.push(gold.clone());
                v.preds.push(spans);
            } else {
                v.f1_excluded += 1;
            }
            same.then_some(tokens.len())
        } else {
            v.malformed += 1;
            None
        };
        v.ok.push(served.is_some());
        v.tokens.push(served.unwrap_or(0));
    }
    v
}

/// The body a correct server sends for `text`: offline
/// [`NerPipeline::extract`](ner_core::prelude::NerPipeline::extract)
/// rendered in the extraction endpoint's field order.
pub fn expected_body(pipeline: &ner_core::prelude::NerPipeline, text: &str) -> String {
    use serde::Serialize;
    let s = pipeline.extract(text);
    let body = Value::Object(vec![
        (
            "tokens".to_string(),
            Value::Array(s.tokens.iter().map(|t| Value::Str(t.text.clone())).collect()),
        ),
        ("entities".to_string(), Value::Array(s.entities.iter().map(|e| e.serialize()).collect())),
        ("render".to_string(), Value::Str(s.render_brackets())),
    ]);
    serde_json::to_string(&body).expect("a value tree always serializes")
}

/// Seeded choice of the requests whose bodies are byte-compared: about
/// one in `every`.
pub fn sampled(seed: u64, i: usize, every: u64) -> bool {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(every)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(text: &str, gold: Option<Vec<EntitySpan>>) -> Item {
        Item { text: text.to_string(), gold }
    }

    const ANN: &str = r#"{"tokens":["Ann","ran"],"entities":[{"start":0,"end":1,"label":"PER"}],"render":"[Ann]PER ran"}"#;

    fn answered(item: usize, status: u16, body: &str) -> Sent {
        let now = Instant::now();
        Sent { item, due: now, sent: now, done: Some(now), status, body: body.as_bytes().to_vec() }
    }

    fn per(start: usize, end: usize) -> EntitySpan {
        EntitySpan { start, end, label: "PER".into() }
    }

    #[test]
    fn matching_responses_pass_and_feed_f1() {
        let items = vec![item("Ann ran", Some(vec![per(0, 1)])), item("Ann ran", None)];
        let sent = vec![answered(0, 200, ANN), answered(1, 200, ANN)];
        let v = check(&items, &sent, |_| true, |_| ANN.to_string());
        assert_eq!((v.failed(), v.sampled, v.f1_excluded, v.tokens.clone()), (0, 2, 1, vec![2, 2]));
        assert_eq!(v.ok, vec![true, true]);
        assert_eq!((v.golds.len(), v.preds[0].clone()), (1, vec![per(0, 1)]));
    }

    #[test]
    fn wrong_expected_payload_counts_as_failed() {
        let items = vec![item("Ann ran", Some(vec![per(0, 1)]))];
        let sent = vec![answered(0, 200, ANN), answered(0, 200, ANN)];
        // The injected reference disagrees by one label; only the sampled
        // request can notice, and it must count as a failure.
        let wrong = ANN.replace("PER", "LOC");
        let v = check(&items, &sent, |i| i == 1, |_| wrong.clone());
        assert_eq!((v.divergent, v.failed(), v.sampled), (1, 1, 1));
        assert_eq!(v.ok, vec![true, false]);
        assert_eq!(v.tokens, vec![2, 0]);
        assert_eq!(v.golds.len(), 1, "a divergent response is not scored");
    }

    #[test]
    fn missing_refused_and_malformed_responses_fail() {
        let items = vec![item("Ann ran", None)];
        let mut lost = answered(0, 0, "");
        lost.done = None;
        let sent = vec![
            lost,
            answered(0, 429, "busy"),
            answered(0, 200, "{\"tokens\":[\"Ann\"]"),
            answered(
                0,
                200,
                r#"{"tokens":["Ann","ran"],"entities":[{"start":1,"end":5,"label":"X"}],"render":""}"#,
            ),
            answered(0, 200, r#"{"tokens":["Ann","walked"],"entities":[],"render":""}"#),
        ];
        let v = check(&items, &sent, |_| false, |_| unreachable!("nothing sampled"));
        assert_eq!((v.unanswered, v.bad_status, v.malformed, v.divergent), (1, 1, 2, 1));
        assert_eq!(v.failed(), 5);
        assert_eq!(v.tokens, vec![0; 5]);
        assert!(v.ok.iter().all(|ok| !ok));
    }

    #[test]
    fn sampling_is_seeded_and_near_its_rate() {
        let picks = |seed| (0..8000).filter(|&i| sampled(seed, i, 8)).collect::<Vec<_>>();
        assert_eq!(picks(3), picks(3));
        assert_ne!(picks(3), picks(4));
        assert!((800..1200).contains(&picks(3).len()));
    }
}
