//! Quickstart: fit X-Map on a small synthetic two-domain trace and produce cold-start
//! recommendations for a user who has never rated anything in the target domain.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use xmap_suite::graph::BridgeIndex;
use xmap_suite::prelude::*;

fn main() {
    // 1. Generate a synthetic Amazon-like trace: movies (SOURCE) and books (TARGET) with
    //    a population of overlapping "straddler" users connecting the two domains.
    let dataset = CrossDomainDataset::generate(CrossDomainConfig::default());
    println!(
        "dataset: {} users, {} items, {} ratings ({} straddlers)",
        dataset.matrix.n_users(),
        dataset.matrix.n_items(),
        dataset.matrix.n_ratings(),
        dataset.overlap_users.len()
    );

    // 2. Fit the non-private, item-based X-Map variant (NX-Map-ib).
    let config = XMapConfig {
        mode: XMapMode::NxMapItemBased,
        k: 25,
        ..XMapConfig::default()
    };
    let model = XMapModel::fit(&dataset.matrix, DomainId::SOURCE, DomainId::TARGET, config)
        .expect("the synthetic trace always contains both domains");

    println!("fitted {}", model.label());
    let graph = model.graph();
    println!(
        "  bridge items: {}, heterogeneous pairs: {} direct / {} after X-Sim extension",
        BridgeIndex::from_graph(&graph).n_bridges(),
        graph.n_heterogeneous_pairs(),
        model.xsim().n_heterogeneous_pairs()
    );
    for stage in model.ledger() {
        println!("  stage {:<12} {:?}", stage.name, stage.duration);
    }

    // 3. Pick a user who rated only movies (cold-start in books) and inspect the AlterEgo
    //    that X-Map builds for them in the book domain.
    let user = dataset.source_only_users[0];
    let alterego = model.alterego(user);
    println!(
        "\nuser {user} rated {} movies and 0 books; AlterEgo maps {} of those ratings into books",
        dataset.matrix.user_degree(user),
        alterego.n_mapped
    );

    // 4. Produce top-5 book recommendations for that user.
    println!("top-5 book recommendations for {user}:");
    for (item, score) in model.recommend(user, 5) {
        println!("  {item}  predicted rating {score:.2}");
    }
}
