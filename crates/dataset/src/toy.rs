//! The Figure 1(a) toy scenario.
//!
//! Five users, three movies and three books, hand-built so that *Interstellar* and *The
//! Forever War* share no rater yet are connected by the meta-path
//! `Interstellar —Bob→ Inception —Cecilia→ The Forever War`. The scenario is used by the
//! quickstart example, by documentation, and by tests that need a minimal, fully
//! understood heterogeneous instance.
//!
//! Cecilia is the only straddler (she rates both movies and books), so Inception and the
//! books she rated are the bridge items; Interstellar sits in the NB-layer of the movie
//! domain and is reachable from the books only through meta-paths — exactly the
//! situation the paper's introduction motivates.

use xmap_cf::{DomainId, ItemId, RatingMatrix, RatingMatrixBuilder, UserId};

/// Named handles into the toy scenario.
#[derive(Clone, Debug)]
pub struct ToyScenario {
    /// The rating matrix with item domains declared (movies = SOURCE, books = TARGET).
    pub matrix: RatingMatrix,
    /// Human-readable item names, indexed by [`ItemId`].
    pub item_names: Vec<&'static str>,
}

/// Item ids of the toy scenario, for readable test code.
pub mod items {
    use xmap_cf::ItemId;
    /// Interstellar (movie).
    pub const INTERSTELLAR: ItemId = ItemId(0);
    /// Inception (movie).
    pub const INCEPTION: ItemId = ItemId(1);
    /// The Martian (movie).
    pub const THE_MARTIAN: ItemId = ItemId(2);
    /// The Forever War (book).
    pub const THE_FOREVER_WAR: ItemId = ItemId(3);
    /// Ender's Game (book).
    pub const ENDERS_GAME: ItemId = ItemId(4);
    /// Dune (book).
    pub const DUNE: ItemId = ItemId(5);
}

/// User ids of the toy scenario.
pub mod users {
    use xmap_cf::UserId;
    /// Alice: rates movies only (cold-start in books).
    pub const ALICE: UserId = UserId(0);
    /// Bob: rates movies only; connects Interstellar and Inception.
    pub const BOB: UserId = UserId(1);
    /// Cecilia: the straddler; connects Inception with the books.
    pub const CECILIA: UserId = UserId(2);
    /// Dave: rates one movie.
    pub const DAVE: UserId = UserId(3);
    /// Eve: rates books only.
    pub const EVE: UserId = UserId(4);
}

impl ToyScenario {
    /// Builds the scenario.
    pub fn build() -> Self {
        let mut b = RatingMatrixBuilder::new();
        let ratings: [(UserId, ItemId, f64, u32); 13] = [
            // Alice loves the sci-fi movies but has never rated a book.
            (users::ALICE, items::INTERSTELLAR, 5.0, 0),
            (users::ALICE, items::THE_MARTIAN, 4.0, 1),
            // Bob connects Interstellar and Inception (movies only).
            (users::BOB, items::INTERSTELLAR, 5.0, 0),
            (users::BOB, items::INCEPTION, 5.0, 1),
            (users::BOB, items::THE_MARTIAN, 2.0, 2),
            // Cecilia is the straddler: she connects Inception with The Forever War and Dune.
            (users::CECILIA, items::INCEPTION, 5.0, 0),
            (users::CECILIA, items::THE_MARTIAN, 1.0, 1),
            (users::CECILIA, items::THE_FOREVER_WAR, 5.0, 2),
            (users::CECILIA, items::DUNE, 4.0, 3),
            // Dave adds another movie rating.
            (users::DAVE, items::THE_MARTIAN, 2.0, 0),
            // Eve rates books only; she connects The Forever War with Ender's Game.
            (users::EVE, items::THE_FOREVER_WAR, 5.0, 0),
            (users::EVE, items::ENDERS_GAME, 4.0, 1),
            (users::EVE, items::DUNE, 2.0, 2),
        ];
        for (user, item, value, t) in ratings {
            b.push_timed(user.0, item.0, value, t)
                // lint: panic — the table above is literal finite ratings.
                .expect("toy ratings are finite");
        }

        for movie in [items::INTERSTELLAR, items::INCEPTION, items::THE_MARTIAN] {
            b.set_item_domain(movie, DomainId::SOURCE);
        }
        for book in [items::THE_FOREVER_WAR, items::ENDERS_GAME, items::DUNE] {
            b.set_item_domain(book, DomainId::TARGET);
        }

        ToyScenario {
            matrix: b.build().expect("toy scenario is non-empty"), // lint: panic — reviewed invariant
            item_names: vec![
                "Interstellar",
                "Inception",
                "The Martian",
                "The Forever War",
                "Ender's Game",
                "Dune",
            ],
        }
    }

    /// Name of an item.
    pub fn item_name(&self, item: ItemId) -> &str {
        self.item_names
            .get(item.index())
            .copied()
            .unwrap_or("<unknown>")
    }
}

impl Default for ToyScenario {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_cf::similarity::{item_similarity, item_similarity_stats, SimilarityMetric};

    #[test]
    fn alice_is_cold_start_in_books() {
        let toy = ToyScenario::build();
        let (books, movies) = toy.matrix.profile_by_domain(users::ALICE, DomainId::TARGET);
        assert!(books.is_empty());
        assert_eq!(movies.len(), 2);
    }

    #[test]
    fn interstellar_and_forever_war_have_zero_standard_similarity() {
        let toy = ToyScenario::build();
        let s = item_similarity(
            &toy.matrix,
            items::INTERSTELLAR,
            items::THE_FOREVER_WAR,
            SimilarityMetric::AdjustedCosine,
        );
        assert_eq!(
            s, 0.0,
            "the paper's motivating example requires a zero direct similarity"
        );
    }

    #[test]
    fn cecilia_is_the_only_straddler() {
        let toy = ToyScenario::build();
        let overlap = toy
            .matrix
            .overlapping_users(&[DomainId::SOURCE, DomainId::TARGET]);
        assert_eq!(overlap, vec![users::CECILIA]);
    }

    #[test]
    fn the_bridging_edges_are_positive_and_significant() {
        let toy = ToyScenario::build();
        // Interstellar - Inception through Bob
        let hop1 = item_similarity_stats(
            &toy.matrix,
            items::INTERSTELLAR,
            items::INCEPTION,
            SimilarityMetric::AdjustedCosine,
        );
        assert!(hop1.similarity > 0.0);
        assert!(hop1.significance >= 1);
        // Inception - The Forever War through Cecilia
        let hop2 = item_similarity_stats(
            &toy.matrix,
            items::INCEPTION,
            items::THE_FOREVER_WAR,
            SimilarityMetric::AdjustedCosine,
        );
        assert!(hop2.similarity > 0.0);
        assert!(hop2.significance >= 1);
    }

    #[test]
    fn names_resolve() {
        let toy = ToyScenario::build();
        assert_eq!(toy.item_name(items::THE_FOREVER_WAR), "The Forever War");
        assert_eq!(toy.item_name(items::DUNE), "Dune");
        assert_eq!(toy.item_name(ItemId(99)), "<unknown>");
        assert_eq!(
            ToyScenario::default().matrix.n_ratings(),
            toy.matrix.n_ratings()
        );
    }
}
