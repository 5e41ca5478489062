//! The foreign-key tree pass's two rules, proved at their crossovers.
//!
//! Each rule chooses between strategies that answer the same bytes, so a
//! wrong constant or a flipped comparison passes every differential
//! fuzzer and shows only as work. Here each rule's inputs are built at its
//! crossover ± 1 (the sizes derived from the rule's own prices), every
//! strategy is forced in turn through `execute_forced`, and the test
//! asserts that all of them answer identical bytes, that the rule switches
//! where its prices say, and that the chosen strategy's work, counted by
//! `relational::work` (`rows_weighed`), is no more than any other's.
//!
//! * The walk rule (`exec::tree::walk_rule`): each message folds by the
//!   walk that weighs the fewest rows. All four of its crossovers are
//!   here: sparse against dense and held against dense and sparse, for a
//!   child that holds the key and for a parent that does.
//! * The tree rule (`exec::tree::joins_rule`) has no size in it: a plan
//!   runs as a tree pass exactly when its shape lets the answer ignore the
//!   join order. Its boundary is each condition one step either side; the
//!   pass must then answer the greedy loop's bytes while grouping no more
//!   rows than the greedy loop's joins emit.

#[cfg(test)]
mod tests {
    use crate::database::Database;
    use crate::exec::tree::Walk;
    use crate::relation::Relation;
    use crate::sql::analyze::analyze;
    use crate::sql::executor::{execute_forced, Forced};
    use crate::sql::explain::Stage;
    use crate::sql::{parse_statement, Statement};
    use crate::value::Value;
    use crate::work::{self, Work};

    /// `p` (`n_p` rows, `id` and `k` both the row number) and `c` (`n_c`
    /// rows, `k` the row number, `p_id` = `k % fan_in`) referencing it.
    fn db(n_p: usize, n_c: usize, fan_in: usize) -> Database {
        let mut db = Database::new();
        for stmt in [
            "CREATE TABLE p (id INT PRIMARY KEY, k INT NOT NULL)",
            "CREATE TABLE c (id INT PRIMARY KEY, p_id INT NOT NULL REFERENCES p(id), k INT NOT NULL)",
        ] {
            crate::sql::execute(&mut db, stmt).unwrap();
        }
        let int = |i: usize| Value::Int(i as i64);
        db.append_rows("p", (0..n_p).map(|i| vec![int(i), int(i)]))
            .unwrap();
        db.append_rows("c", (0..n_c).map(|i| vec![int(i), int(i % fan_in), int(i)]))
            .unwrap();
        db
    }

    /// One run of `sql`: its answer, its stages and its work.
    fn run(db: &Database, sql: &str, forced: Forced) -> (Relation, Vec<Stage>, Work) {
        let Ok(Statement::Select(q)) = parse_statement(sql) else {
            panic!("not a SELECT: {sql}");
        };
        let plan = analyze(db, &q).unwrap();
        let before = work::on_this_thread();
        let (rel, stages) = execute_forced(db, &plan, forced).unwrap();
        (rel, stages, work::on_this_thread() - before)
    }

    /// The walk the (one) message of a two-table tree pass took.
    fn walk_of(stages: &[Stage]) -> Option<Walk> {
        stages.iter().find_map(|s| match s {
            Stage::Tree { steps, .. } => Some(steps[0].walk),
            _ => None,
        })
    }

    /// Runs `sql` with the rule's choice, with every walk forced and on the
    /// greedy loop: all answer the same bytes, and the chosen walk weighs no
    /// more rows than any other. Returns the chosen walk and what each walk
    /// weighed (`[Dense, Sparse, Held]`).
    fn every_walk(db: &Database, sql: &str) -> (Walk, [u64; 3]) {
        let (want, stages, _) = run(db, sql, Forced::default());
        let chosen = walk_of(&stages).expect("a tree pass");
        let (greedy, stages, _) = run(
            db,
            sql,
            Forced {
                greedy: true,
                walk: None,
            },
        );
        assert!(walk_of(&stages).is_none());
        assert_eq!(greedy.rows, want.rows, "{sql}");
        let weighed = [Walk::Dense, Walk::Sparse, Walk::Held].map(|walk| {
            let forced = Forced {
                greedy: false,
                walk: Some(walk),
            };
            let (got, _, w) = run(db, sql, forced);
            assert_eq!(got.rows, want.rows, "{sql}: {walk:?}");
            w.rows_weighed
        });
        let at = |w: Walk| weighed[w as usize];
        for (i, &other) in weighed.iter().enumerate() {
            assert!(
                at(chosen) <= other,
                "{sql}: {chosen:?} weighed {weighed:?} ({i})"
            );
        }
        (chosen, weighed)
    }

    /// Where a child holds the key (`c` references the root `p`): sparse
    /// weighs `2 h + n_p / 64` rows for `h` weighed child rows, dense
    /// `n_c + n_p`, so the walk turns dense at the least `h` where
    /// `2 h + n_p / 64 >= n_c + n_p`.
    #[test]
    fn scatter_turns_dense_where_the_sparse_message_stops_paying() {
        let (n_p, n_c) = (100, 300);
        let d = db(n_p, n_c, n_p);
        let cross = (n_c + n_p - n_p / 64).div_ceil(2);
        let sql = |h: usize| {
            format!(
                "SELECT p.id, COUNT(*) AS n FROM c, p WHERE c.p_id = p.id AND c.k < {h} \
                 GROUP BY p.id ORDER BY p.id"
            )
        };
        for h in [cross - 1, cross, cross + 1] {
            let (walk, weighed) = every_walk(&d, &sql(h));
            let want = if h < cross { Walk::Sparse } else { Walk::Dense };
            assert_eq!(walk, want, "h = {h}: {weighed:?}");
            assert_eq!(weighed[1], (2 * h + n_p / 64) as u64);
            assert_eq!(weighed[0], (n_c + n_p) as u64);
        }
    }

    /// Where a child holds the key and the parent lists its rows: held
    /// weighs each held parent row and its reverse list (`hp + fan * hp`,
    /// while `hp` stays under the referenced rows), sparse `2 hc + n_p / 64`.
    /// With `hp` fixed, held wins from the least `hc` where sparse costs more;
    /// and held against dense switches only where the parent holds every row.
    #[test]
    fn held_parent_rows_walk_their_reverse_lists() {
        let (n_p, n_c, fan_in) = (200, 300, 150);
        let d = db(n_p, n_c, fan_in);
        let sql = |hp: usize, hc: usize| {
            format!(
                "SELECT p.id, COUNT(*) AS n FROM c, p WHERE c.p_id = p.id AND p.k < {hp} \
                 AND c.k < {hc} GROUP BY p.id ORDER BY p.id"
            )
        };
        let hp = 100;
        let held = hp + hp * (n_c / fan_in);
        let cross = (held - n_p / 64).div_ceil(2);
        for hc in [cross - 1, cross, cross + 1] {
            let (walk, weighed) = every_walk(&d, &sql(hp, hc));
            let want = if hc < cross { Walk::Sparse } else { Walk::Held };
            assert_eq!(walk, want, "hc = {hc}: {weighed:?}");
            assert_eq!(weighed[2], held as u64);
        }
        // Every child row weighed: held against dense.
        for hp in [n_p - 1, n_p] {
            let (walk, weighed) = every_walk(&d, &sql(hp, n_c));
            let want = if hp < n_p { Walk::Held } else { Walk::Dense };
            assert_eq!(walk, want, "hp = {hp}: {weighed:?}");
        }
    }

    /// Where the parent holds the key (the root `c` references `p`): sparse
    /// walks the reverse lists of the `h` weighed `p` rows, `2 * fan * h +
    /// n_c / 64` rows, dense gathers every `c` row, so the walk turns dense at
    /// the least `h` where `2 * fan * h + n_c / 64 >= n_c`. With the parent
    /// listing `hc` rows, held gathers only those.
    #[test]
    fn gather_turns_sparse_or_held_at_its_prices() {
        let (n_p, n_c) = (100, 400);
        let fan = n_c / n_p;
        let d = db(n_p, n_c, n_p);
        let sql = |h: usize, hc: usize| {
            format!(
                "SELECT c.id, COUNT(*) AS n FROM c, p WHERE c.p_id = p.id AND p.k < {h} \
                 AND c.k < {hc} GROUP BY c.id ORDER BY c.id"
            )
        };
        let cross = (n_c - n_c / 64).div_ceil(2 * fan);
        for h in [cross - 1, cross, cross + 1] {
            let (walk, weighed) = every_walk(&d, &sql(h, n_c));
            let want = if h < cross { Walk::Sparse } else { Walk::Dense };
            assert_eq!(walk, want, "h = {h}: {weighed:?}");
            assert_eq!(weighed[1], (2 * fan * h + n_c / 64) as u64);
        }
        // Sparse costs `sparse` rows at h = 10: held wins below it, and a tie
        // keeps the sparse message.
        let sparse = 2 * fan * 10 + n_c / 64;
        for hc in [sparse - 1, sparse, sparse + 1] {
            let (walk, weighed) = every_walk(&d, &sql(10, hc));
            let want = if hc < sparse {
                Walk::Held
            } else {
                Walk::Sparse
            };
            assert_eq!(walk, want, "hc = {hc}: {weighed:?}");
            assert_eq!(weighed[2], hc as u64);
        }
    }

    /// The tree rule at each of its conditions: a plan that meets them all
    /// runs as a tree pass, answers the greedy loop's bytes and groups no more
    /// rows than the greedy loop's joins emit; a plan one condition short runs
    /// on the greedy loop.
    #[test]
    fn the_tree_rule_at_each_condition() {
        let d = db(50, 200, 40);
        let from = "FROM c, p WHERE c.p_id = p.id AND c.k < 150";
        let taken = [
            format!("SELECT p.k, COUNT(*) AS n {from} GROUP BY p.k ORDER BY n DESC, p.k"),
            format!("SELECT p.k, MIN(p.id), COUNT(p.id) {from} GROUP BY p.k ORDER BY p.k LIMIT 3"),
            format!("SELECT COUNT(*), MAX(c.k) {from}"),
            format!("SELECT DISTINCT p.k {from} ORDER BY p.k DESC"),
            format!("SELECT DISTINCT p.k, 7 {from} ORDER BY p.id, p.k"),
        ];
        let refused = [
            // No ORDER BY: group order would follow the join order.
            format!("SELECT p.k, COUNT(*) AS n {from} GROUP BY p.k"),
            // ORDER BY misses a key.
            format!("SELECT p.k, p.id, COUNT(*) {from} GROUP BY p.k, p.id ORDER BY p.k"),
            // SUM and AVG fold in row order.
            format!("SELECT p.k, SUM(p.id) {from} GROUP BY p.k ORDER BY p.k"),
            // Grouped columns in two tables.
            format!("SELECT p.k, MIN(c.k) {from} GROUP BY p.k ORDER BY p.k"),
            // A residual predicate.
            format!("SELECT p.k, COUNT(*) {from} AND c.k > p.k GROUP BY p.k ORDER BY p.k"),
            // An edge that is no foreign key (a cycle of two edges, too).
            format!("SELECT p.k, COUNT(*) {from} AND c.k = p.k GROUP BY p.k ORDER BY p.k"),
            // A plain join.
            format!("SELECT p.k {from} ORDER BY p.k"),
            // One table.
            "SELECT k, COUNT(*) FROM p GROUP BY k ORDER BY k".to_string(),
        ];
        let joined = |stages: &[Stage]| {
            stages.iter().rev().find_map(|s| match *s {
                Stage::Join { out, .. } => Some(out),
                Stage::Tree { rows, .. } => Some(rows),
                _ => None,
            })
        };
        for sql in &taken {
            let (want, tree, w) = run(&d, sql, Forced::default());
            let (got, greedy, _) = run(
                &d,
                sql,
                Forced {
                    greedy: true,
                    walk: None,
                },
            );
            assert_eq!(w.tree_passes, 1, "{sql}");
            assert_eq!(got.rows, want.rows, "{sql}");
            assert!(
                joined(&tree) <= joined(&greedy),
                "{sql}: {tree:?} {greedy:?}"
            );
        }
        for sql in &refused {
            let (_, _, w) = run(&d, sql, Forced::default());
            assert_eq!(w.tree_passes, 0, "{sql}");
        }
    }
}
