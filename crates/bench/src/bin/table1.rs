//! Table 1: categories of node and edge types by how they are translated
//! from the relational schema, instantiated on the academic data set.

use std::collections::BTreeMap;

fn main() {
    let (_, tgdb) = etable_bench::default_dataset();
    println!("== Table 1: node/edge type categories (Appendix A translation) ==\n");
    let header = ["Form", "Source", "Created types", "Determining factor"];
    println!(
        "{:<10} {:<42} {:<24} {}",
        header[0], header[1], header[2], header[3]
    );
    // Group report entries by (form, source).
    let mut groups: BTreeMap<(&str, String), (Vec<String>, String)> = BTreeMap::new();
    for e in &tgdb.report() {
        let entry = groups
            .entry((e.form, e.source.clone()))
            .or_insert_with(|| (Vec::new(), e.determining_factor.clone()));
        entry.0.push(e.name.clone());
    }
    for ((form, source), (names, factor)) in &groups {
        println!(
            "{:<10} {:<42} {:<24} {}",
            form,
            source,
            names.join(", "),
            factor
        );
    }
    println!("\nrelation classification:");
    for (table, cat) in &tgdb.categories {
        println!("  {:<18} -> {:?}", table, cat);
    }
}
