//! [`Codec`] implementations for the CF substrate's plain value types.
//!
//! The encodings here are the leaves the snapshot and journal formats are built
//! from: ids and timesteps as their raw integers, ratings and entries as field
//! sequences in declaration order, floats as IEEE-754 bits (bit-exact round
//! trips). The [`crate::RatingMatrix`] codec lives in `matrix.rs` next to its
//! private fields.

use crate::ids::{DomainId, ItemId, UserId};
use crate::matrix::{ItemEntry, UserEntry};
use crate::rating::{Rating, RatingScale, Timestep};
use crate::similarity::SimilarityMetric;
use xmap_store::{Codec, Decoder, Encoder, StoreError};

macro_rules! newtype_codec {
    ($ty:ident, $raw:ty) => {
        impl Codec for $ty {
            fn enc(&self, e: &mut Encoder) {
                self.0.enc(e);
            }
            fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
                Ok($ty(<$raw>::dec(d)?))
            }
        }
    };
}

newtype_codec!(UserId, u32);
newtype_codec!(ItemId, u32);
newtype_codec!(DomainId, u16);
newtype_codec!(Timestep, u32);

impl Codec for Rating {
    fn enc(&self, e: &mut Encoder) {
        self.user.enc(e);
        self.item.enc(e);
        e.put_f64(self.value);
        self.timestep.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(Rating {
            user: UserId::dec(d)?,
            item: ItemId::dec(d)?,
            value: d.take_f64()?,
            timestep: Timestep::dec(d)?,
        })
    }
}

impl Codec for RatingScale {
    fn enc(&self, e: &mut Encoder) {
        e.put_f64(self.min);
        e.put_f64(self.max);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(RatingScale {
            min: d.take_f64()?,
            max: d.take_f64()?,
        })
    }
}

impl Codec for UserEntry {
    fn enc(&self, e: &mut Encoder) {
        self.item.enc(e);
        e.put_f64(self.value);
        self.timestep.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(UserEntry {
            item: ItemId::dec(d)?,
            value: d.take_f64()?,
            timestep: Timestep::dec(d)?,
        })
    }
}

impl Codec for ItemEntry {
    fn enc(&self, e: &mut Encoder) {
        self.user.enc(e);
        e.put_f64(self.value);
        self.timestep.enc(e);
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(ItemEntry {
            user: UserId::dec(d)?,
            value: d.take_f64()?,
            timestep: Timestep::dec(d)?,
        })
    }
}

impl Codec for SimilarityMetric {
    fn enc(&self, e: &mut Encoder) {
        e.put_u8(match self {
            SimilarityMetric::AdjustedCosine => 0,
            SimilarityMetric::Cosine => 1,
            SimilarityMetric::Pearson => 2,
        });
    }
    fn dec(d: &mut Decoder<'_>) -> Result<Self, StoreError> {
        match d.take_u8()? {
            0 => Ok(SimilarityMetric::AdjustedCosine),
            1 => Ok(SimilarityMetric::Cosine),
            2 => Ok(SimilarityMetric::Pearson),
            tag => Err(d.corrupt(format!("invalid SimilarityMetric tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmap_store::{decode_exact, encode_to_vec};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_exact(&bytes, 0).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn value_types_roundtrip() {
        roundtrip(UserId(7));
        roundtrip(ItemId(u32::MAX));
        roundtrip(DomainId::TARGET);
        roundtrip(Timestep(3));
        roundtrip(Rating::at(UserId(1), ItemId(2), 4.5, Timestep(9)));
        roundtrip(RatingScale::FIVE_STAR);
        roundtrip(SimilarityMetric::AdjustedCosine);
        roundtrip(SimilarityMetric::Pearson);
    }

    #[test]
    fn invalid_metric_tag_is_corrupt() {
        let err = decode_exact::<SimilarityMetric>(&[9], 0).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }
}
