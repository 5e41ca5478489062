//! Wire codec bench family: one `Result` frame's payload, encoded and
//! decoded, for the largest answer of the wire read mix — bulk statement
//! 1, `SELECT id, title, year FROM Papers WHERE year >= 2008`, at 38 000
//! papers (19 108 rows, each title distinct).
//!
//! `*_cold` is the first send on a connection (a fresh dictionary: every
//! title travels and is interned), `*_warm` the same result sent again on
//! the same connection (no string travels). The client shares this
//! process's interner with the generated corpus, as the in-process
//! benchmark server does, so the cold decode's interning finds every
//! title already there.

use criterion::{criterion_group, criterion_main, Criterion};
use etable_bench::parse_select as parse;
use etable_datagen::{generate, GenConfig};
use etable_relational::sql::executor::execute_query;
use etable_server::proto::{decode, encode, Decoder, Encoder, Message};

fn bench_wire(c: &mut Criterion) {
    let db = generate(&GenConfig::medium().with_papers(38_000));
    let query = parse("SELECT id, title, year FROM Papers WHERE year >= 2008");
    let relation = execute_query(&db, &query).expect("bulk statement executes");
    let msg = Message::Result { epoch: 0, relation };

    let mut encoder = Encoder::new();
    let cold = encoder.encode(&msg).expect("a bulk frame fits");
    let warm = encoder.encode(&msg).expect("a bulk frame fits");
    let mut decoder = Decoder::new();
    decoder.decode(&cold).expect("the cold frame decodes");

    let mut group = c.benchmark_group("wire");
    group.sample_size(30);
    group.bench_function("encode_bulk_cold", |b| b.iter(|| encode(&msg).len()));
    group.bench_function("encode_bulk_warm", |b| {
        b.iter(|| encoder.encode(&msg).expect("a bulk frame fits").len())
    });
    group.bench_function("decode_bulk_cold", |b| {
        b.iter(|| decode(&cold).expect("the cold frame decodes"))
    });
    // Decoding a frame that sends no string leaves the dictionary as it
    // is, so every iteration sees the same warm state.
    group.bench_function("decode_bulk_warm", |b| {
        b.iter(|| decoder.decode(&warm).expect("the warm frame decodes"))
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
