//! The presentation layer's work, counted (`etable_core::work`), does not
//! grow with the table where the paper's verbs show a page of it: at two
//! corpus sizes, a sorted first page orders at most the page, a hide, a
//! show and a re-render after a sort build no key and order no row, and a
//! focus ranks the table once, reading labels once per distinct reference
//! set.

use etable_repro::core::etable::{Cell, EnrichedTable};
use etable_repro::core::render::{render_etable, RenderOptions};
use etable_repro::core::session::Session;
use etable_repro::core::work::{on_this_thread, Work};
use etable_repro::datagen::{generate, GenConfig};
use etable_repro::tgm::{translate, NodeId, TranslateOptions};
use std::collections::HashSet;
use std::sync::Arc;

/// What `act` did on this thread.
fn work_of(act: impl FnOnce()) -> Work {
    let before = on_this_thread();
    act();
    on_this_thread() - before
}

/// The session's table, rendered as the main view shows it.
fn show(s: &mut Session) -> EnrichedTable {
    let t = s.etable().unwrap();
    render_etable(&t, &RenderOptions::default());
    t
}

/// The distinct reference sets of every reference column of `t`, and
/// their sizes summed.
fn distinct_sets(t: &EnrichedTable) -> (u64, u64) {
    let (mut sets, mut ids) = (0, 0);
    for c in 0..t.columns.len() {
        let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
        for cell in t.column_values(c) {
            if let Cell::Refs(refs) = cell {
                let mut set: Vec<NodeId> = refs.ids().collect();
                set.sort_unstable();
                seen.insert(set);
            }
        }
        sets += seen.len() as u64;
        ids += seen.iter().map(|s| s.len() as u64).sum::<u64>();
    }
    (sets, ids)
}

#[test]
fn presentation_work_is_bounded_by_what_is_shown() {
    let page = RenderOptions::default().max_rows as u64;
    for papers in [3_000, 12_000] {
        let db = generate(&GenConfig::medium().with_papers(papers));
        let tgdb = Arc::new(translate(&db, &TranslateOptions::default()).unwrap());
        let mut s = Session::new(tgdb);
        s.open_by_name("Papers").unwrap();
        assert_eq!(show(&mut s).len(), papers);

        s.sort("year", true);
        let first = work_of(|| drop(show(&mut s)));
        assert_eq!(first.keys_built, papers as u64, "{papers}: one key a row");
        assert!(first.rows_ordered <= page, "{papers}: {first:?}");

        for step in ["hide", "show", "render"] {
            let w = work_of(|| {
                match step {
                    "hide" => s.hide("title"),
                    "show" => s.show("title"),
                    _ => {}
                }
                drop(show(&mut s));
            });
            assert_eq!(
                (w.keys_built, w.rows_ordered),
                (0, 0),
                "{papers} {step}: {w:?}"
            );
        }

        let all = s.etable().unwrap();
        let (sets, ids) = distinct_sets(&all);
        let w = work_of(|| {
            s.focus_top_columns(4).unwrap();
            drop(show(&mut s));
        });
        assert_eq!(w.rank_passes, 1, "{papers}: {w:?}");
        assert_eq!(w.id_sets, sets, "{papers}: {w:?}");
        assert!(
            w.labels_read <= ids,
            "{papers}: {w:?}, {ids} ids in distinct sets"
        );
        assert_eq!((w.keys_built, w.rows_ordered), (0, 0), "{papers}: {w:?}");
    }
}
