//! Figure 5: an excerpt of the TGDB instance graph — the neighborhood of
//! the paper "Making database systems usable".

fn main() {
    let (_, tgdb) = etable_bench::default_dataset();
    let (papers, _) = tgdb.schema.node_type_by_name("Papers").expect("Papers");
    let center = tgdb.node_by_key(papers, &1.into()).expect("planted paper");

    println!("== Figure 5: instance graph excerpt ==\n");
    println!("center node [Papers] \"{}\"", tgdb.instances.label(center));
    for (et_id, et) in tgdb.schema.outgoing(papers) {
        let neighbors = tgdb.instances.neighbors(et_id, center);
        if neighbors.len() == 0 {
            continue;
        }
        println!("  --{}-->", et.name);
        for n in neighbors.clone().take(6) {
            let label = tgdb.instances.label(n);
            let type_name = &tgdb.schema.node_type(tgdb.instances.type_of(n)).name;
            println!("      [{type_name}] \"{label}\"");
            // One hop further for entity neighbors, as the figure shows
            // institutions behind authors.
            if type_name == "Authors" {
                let (authors, _) = tgdb.schema.node_type_by_name("Authors").unwrap();
                if let Some((inst_edge, _)) = tgdb.schema.outgoing_by_name(authors, "Institutions")
                {
                    for i in tgdb.instances.neighbors(inst_edge, n).take(1) {
                        println!(
                            "          --Institutions--> \"{}\"",
                            tgdb.instances.label(i)
                        );
                    }
                }
            }
        }
        if neighbors.len() > 6 {
            println!("      ... {} more", neighbors.len() - 6);
        }
    }
    println!(
        "\ninstance graph: {} nodes, {} edges",
        tgdb.instances.node_count(),
        tgdb.instances.edge_count()
    );
}
