//! `ORDER BY … LIMIT k [OFFSET o]` runs as a top-k selection; it must
//! equal the same rows of the full stable sort — ties at the cut
//! included. The differential fuzzer only emits LIMIT under a *total*
//! ORDER BY, so tie stability is pinned here: inputs with heavy ties,
//! DESC keys, NULLs and text, at the one sort kernel
//! (`ColRelation::sort_order`, which plain and grouped queries share) and
//! through SQL with OFFSET.

use etable_relational::colrel::ColRelation;
use etable_relational::database::Database;
use etable_relational::relation::SortKey;
use etable_relational::sql::execute;
use etable_relational::value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORDS: [&str; 4] = ["topk-pear", "topk-apple", "topk-fig", "topk-kiwi"];

/// `t (id, a, s, f)`: `id` is unique, every other column draws from a
/// handful of values and NULL, so most rows tie on any key list.
fn database(seed: u64, n: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    execute(
        &mut db,
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, s TEXT, f FLOAT)",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..n as i64)
        .map(|id| {
            let a = match rng.gen_range(0..5) {
                0 => Value::Null,
                v => Value::Int(v),
            };
            let s = match rng.gen_range(0..5usize) {
                4 => Value::Null,
                w => WORDS[w].into(),
            };
            let f = match rng.gen_range(0..4) {
                0 => Value::Null,
                v => Value::Float(f64::from(v) * 0.5),
            };
            vec![id.into(), a, s, f]
        })
        .collect();
    db.append_rows("t", rows).unwrap();
    db
}

/// One or two keys over the tie-heavy columns 1..=3, random directions.
fn sort_keys(seed: u64) -> Vec<SortKey> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_7973);
    (0..rng.gen_range(1..3))
        .map(|_| SortKey {
            column: rng.gen_range(1..4),
            descending: rng.gen_range(0..2) == 1,
        })
        .collect()
}

/// The reference: the standard library's stable sort over row positions,
/// comparing cells through `Value::total_cmp`.
fn stable_sort(rows: &[Vec<Value>], keys: &[SortKey]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    order.sort_by(|&x, &y| {
        keys.iter().fold(std::cmp::Ordering::Equal, |ord, k| {
            ord.then_with(|| {
                let o = rows[x as usize][k.column].total_cmp(&rows[y as usize][k.column]);
                if k.descending {
                    o.reverse()
                } else {
                    o
                }
            })
        })
    });
    order
}

fn cuts(n: usize) -> [usize; 5] {
    [0, 1, n.saturating_sub(1), n, n + 5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full sort is the stable sort, and every top-k is its prefix.
    #[test]
    fn top_k_is_the_prefix_of_the_stable_sort(seed in 0u64..100_000, n in 1usize..90) {
        let db = database(seed, n);
        let table = db.table("t").unwrap();
        let rows = table.to_rows();
        let keys = sort_keys(seed);
        let want = stable_sort(&rows, &keys);

        let rel = ColRelation::from_table(table, "t");
        prop_assert_eq!(&rel.sort_order(&keys, None), &want, "full sort by {:?}", keys);

        for k in cuts(n) {
            let prefix = &want[..k.min(n)];
            prop_assert_eq!(&rel.sort_order(&keys, Some(k))[..], prefix, "top {} by {:?}", k, keys);
        }
        // No key at all orders by input position: a bare LIMIT.
        prop_assert_eq!(rel.sort_order(&[], Some(3)), (0..n.min(3) as u32).collect::<Vec<_>>());
    }

    /// Through SQL, with and without OFFSET, on the plain and the grouped
    /// tail: LIMIT/OFFSET under a non-total ORDER BY is a slice of the
    /// unlimited answer.
    #[test]
    fn limit_offset_slices_the_unlimited_answer(seed in 0u64..100_000, n in 1usize..90) {
        let mut db = database(seed, n);
        for base in [
            "SELECT a, s, id FROM t ORDER BY a DESC, s",
            "SELECT id, f FROM t WHERE a >= 2 ORDER BY f",
            "SELECT s, a, COUNT(*) AS n FROM t GROUP BY s, a ORDER BY n DESC",
            "SELECT f, COUNT(a) AS n, MIN(s) AS lo FROM t GROUP BY f HAVING COUNT(*) > 1 \
             ORDER BY lo DESC, n",
        ] {
            let full = execute(&mut db, base).unwrap().rows.iter().collect::<Vec<_>>();
            let m = full.len();
            for k in cuts(m) {
                for o in [0, 1, 3, m + 5] {
                    let sql = if o == 0 {
                        format!("{base} LIMIT {k}")
                    } else {
                        format!("{base} LIMIT {k} OFFSET {o}")
                    };
                    let got = execute(&mut db, &sql).unwrap().rows.iter().collect::<Vec<_>>();
                    let lo = o.min(m);
                    let hi = (o + k).min(m);
                    prop_assert_eq!(&got[..], &full[lo..hi], "{}", sql);
                }
            }
        }
    }
}

/// DISTINCT sits between the sort and the limit, so the tail may not cut
/// the sort short: the first `k` *distinct* rows can lie anywhere.
#[test]
fn distinct_before_limit_still_sees_the_whole_sort() {
    let mut db = database(7, 80);
    let full = execute(&mut db, "SELECT DISTINCT a FROM t ORDER BY a DESC")
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
    assert_eq!(full.len(), 5, "four values and NULL");
    for k in 0..=6 {
        let got = execute(
            &mut db,
            &format!("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT {k}"),
        )
        .unwrap()
        .rows
        .iter()
        .collect::<Vec<_>>();
        assert_eq!(got[..], full[..k.min(5)], "LIMIT {k}");
    }
    let got = execute(
        &mut db,
        "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 2 OFFSET 2",
    )
    .unwrap()
    .rows
    .iter()
    .collect::<Vec<_>>();
    assert_eq!(got[..], full[2..4]);
}
