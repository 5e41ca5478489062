//! Byte pins for `Result` payloads: the length and CRC-32 of every frame
//! the wire read mix sends over the small corpus, cold and warm, and of
//! hand-built relations that exercise the dictionary's row-major
//! first-use order across two text columns, NULLs, zero rows and a
//! reset. The golden text was recorded from the row-major codec; any
//! change to the bytes the encoder writes fails here.

#[cfg(test)]
mod tests {
    use super::super::*;
    use crate::load::{canon, ACADEMIC_QUERIES};
    use etable_datagen::{generate, task_set, GenConfig, TaskSet};
    use etable_relational::shared::SharedDatabase;
    use etable_relational::storage::codec::crc32;
    use std::fmt::Write;

    const GOLDEN: &str = include_str!("../../tests/golden/result_payloads.txt");

    /// The 16 read statements of the wire workloads, in their order: set A's
    /// tasks 1, 2 and 5, six academic queries, set A's tasks 3, 4 and 6, and
    /// the two bulk selections.
    fn read_mix() -> Vec<String> {
        let tasks = task_set(TaskSet::A);
        let task = |n: usize| tasks[n - 1].sql.clone();
        let load = |i: usize| ACADEMIC_QUERIES[i].to_string();
        vec![
            task(1),
            task(2),
            task(5),
            load(0),
            load(1),
            load(6),
            load(2),
            load(3),
            load(4),
            load(5),
            load(8),
            task(3),
            task(4),
            task(6),
            "SELECT id, title, year FROM Papers WHERE year >= 2008".to_string(),
            "SELECT p.id, c.acronym, p.year FROM Papers p JOIN Conferences c \
             ON p.conference_id = c.id WHERE p.year < 2006"
                .to_string(),
        ]
    }

    /// One connection's two ends.
    struct Connection {
        enc: Encoder,
        dec: Decoder,
    }

    impl Connection {
        fn new() -> Self {
            Connection {
                enc: Encoder::new(),
                dec: Decoder::new(),
            }
        }

        /// Sends `rel` and appends `name length crc32` of its payload to
        /// `out`; the other end must decode what was sent.
        fn send(&mut self, out: &mut String, name: &str, rel: &Relation) -> Vec<u8> {
            let msg = Message::Result {
                epoch: 7,
                relation: rel.clone(),
            };
            let payload = self.enc.encode(&msg).unwrap();
            writeln!(out, "{name} {} {:08x}", payload.len(), crc32(&payload)).unwrap();
            match self.dec.decode(&payload).unwrap() {
                Message::Result { relation, .. } => {
                    assert_eq!(
                        canon(&relation),
                        canon(rel),
                        "{name} decodes to what was sent"
                    );
                }
                other => panic!("{name}: expected a Result, got {other:?}"),
            }
            payload
        }
    }

    fn text(s: Option<&str>) -> Value {
        s.map_or(Value::Null, Value::from)
    }

    /// Two text columns whose row-major first-use order (x y z w) is not
    /// their column-major one (x z y w), with NULLs in every column.
    fn two_text_columns(words: [[Option<&str>; 2]; 3]) -> Relation {
        Relation::from_rows(
            vec![
                RelColumn::bare("a", DataType::Text),
                RelColumn::qualified("t", "b", DataType::Text),
                RelColumn::bare("n", DataType::Int),
            ],
            words
                .iter()
                .zip([Value::Int(1), Value::Null, Value::Int(3)])
                .map(|(w, n)| vec![text(w[0]), text(w[1]), n])
                .collect(),
        )
    }

    fn pinned() -> String {
        let db = SharedDatabase::new(generate(&GenConfig::small()));
        let mut out = String::new();
        let mut session = Connection::new();
        for (i, sql) in read_mix().iter().enumerate() {
            let rel = db.execute(sql).unwrap();
            // A connection of its own: the first frame cold, the second warm.
            let mut fresh = Connection::new();
            fresh.send(&mut out, &format!("mix{i:02}.cold"), &rel);
            fresh.send(&mut out, &format!("mix{i:02}.warm"), &rel);
            // One connection through the whole mix: each delta onto the last.
            session.send(&mut out, &format!("mix{i:02}.session"), &rel);
        }

        let crossed = two_text_columns([
            [Some("gold-x"), Some("gold-y")],
            [Some("gold-z"), Some("gold-x")],
            [None, Some("gold-w")],
        ]);
        let empty = Relation::from_rows(
            vec![
                RelColumn::bare("a", DataType::Text),
                RelColumn::bare("f", DataType::Float),
            ],
            Vec::new(),
        );
        let mut conn = Connection::new();
        conn.send(&mut out, "crossed.cold", &crossed);
        conn.send(&mut out, "crossed.warm", &crossed);
        conn.send(&mut out, "empty", &empty);

        // A three-entry dictionary: four new strings start it over, and so
        // do the next frame's new ones.
        let mut small = Connection {
            enc: Encoder::with_limits(3, MAX_FRAME_LEN),
            dec: Decoder::with_cap(3),
        };
        let again = two_text_columns([
            [Some("gold-v"), None],
            [Some("gold-x"), Some("gold-u")],
            [None, None],
        ]);
        for (name, rel) in [("reset.first", &crossed), ("reset.second", &again)] {
            let payload = small.send(&mut out, name, rel);
            let mut r = PayloadReader::new(&payload, "golden");
            r.u8("tag").unwrap();
            r.u64("epoch").unwrap();
            for _ in 0..r.u32("ncols").unwrap() {
                r.str("name").unwrap();
                r.u8("type").unwrap();
            }
            r.u64("nrows").unwrap();
            assert_eq!(
                r.u8("reset").unwrap(),
                1,
                "{name} starts the dictionary over"
            );
        }
        out
    }

    #[test]
    fn result_payloads_match_the_golden() {
        let got = pinned();
        assert!(
            got == GOLDEN,
            "Result payloads differ from tests/golden/result_payloads.txt; now:\n{got}"
        );
    }
}
