//! Folds a span trace into self time per span name.
//!
//! Spans carry no parent link, only a lane (one per thread), a start and a
//! duration; on one lane spans nest or follow each other, never overlap
//! partially.  A span's parent is therefore the innermost span on its lane
//! whose interval contains it, and its self time is its duration minus
//! the part of it that its direct children cover.

use std::collections::BTreeMap;

/// One recorded span, keyed by the name it is folded under.
#[derive(Clone, Debug)]
pub struct Span {
    pub lane: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub key: String,
}

/// Totals of every span folded under one key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Folded {
    pub count: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the durations not covered by a child span.
    pub self_ns: u64,
}

pub fn fold(spans: &[Span]) -> BTreeMap<String, Folded> {
    let end = |i: usize| spans[i].start_ns + spans[i].dur_ns;
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents first: by lane, then start, then the longer span.
    order.sort_by_key(|&i| {
        (
            spans[i].lane,
            spans[i].start_ns,
            std::cmp::Reverse(spans[i].dur_ns),
        )
    });
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = open.last() {
            if spans[top].lane == spans[i].lane && end(top) > spans[i].start_ns {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let covered = end(i).min(end(parent)) - spans[i].start_ns;
            self_ns[parent] = self_ns[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    let mut out: BTreeMap<String, Folded> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = out.entry(span.key.clone()).or_default();
        entry.count += 1;
        entry.total_ns += span.dur_ns;
        entry.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: u32, start_ns: u64, dur_ns: u64, key: &str) -> Span {
        Span {
            lane,
            start_ns,
            dur_ns,
            key: key.to_string(),
        }
    }

    #[test]
    fn self_time_of_a_hand_built_tree() {
        // lane 0:  analyze [0,100)
        //            height [10,60)
        //              fm_project [20,30)   fm_project [40,45)
        //            check [70,90)
        //              fm_project [70,75)   (starts with its parent)
        //          analyze [100,110)        (a sibling root, touching)
        // lane 1:  parse [5,50)             (overlaps lane 0, unrelated)
        let spans = vec![
            span(0, 40, 5, "fm_project"),
            span(0, 0, 100, "analyze"),
            span(1, 5, 45, "parse"),
            span(0, 10, 50, "height"),
            span(0, 70, 20, "check"),
            span(0, 20, 10, "fm_project"),
            span(0, 70, 5, "fm_project"),
            span(0, 100, 10, "analyze"),
        ];
        let folded = fold(&spans);
        let get = |k: &str| folded[k];
        assert_eq!(
            get("analyze"),
            Folded {
                count: 2,
                total_ns: 110,
                self_ns: 30 + 10
            }
        );
        assert_eq!(
            get("height"),
            Folded {
                count: 1,
                total_ns: 50,
                self_ns: 35
            }
        );
        assert_eq!(
            get("check"),
            Folded {
                count: 1,
                total_ns: 20,
                self_ns: 15
            }
        );
        assert_eq!(
            get("fm_project"),
            Folded {
                count: 3,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(
            get("parse"),
            Folded {
                count: 1,
                total_ns: 45,
                self_ns: 45
            }
        );
        let all_self: u64 = folded.values().map(|f| f.self_ns).sum();
        assert_eq!(
            all_self,
            110 + 45,
            "self times partition each lane's root time"
        );
    }
}
