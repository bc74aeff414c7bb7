//! The paper's operation mixes (Table 3).

/// Kind of index operation issued by the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Point lookup of an existing or non-existing key.
    Lookup,
    /// Insert a new key or update an existing one (the paper folds updates
    /// into "insert"; about 2/3 of inserts update existing keys).
    Insert,
    /// Delete a key.
    Delete,
    /// Range query starting at a key, scanning a fixed number of entries.
    RangeQuery,
}

/// A read/write mix expressed as percentages that sum to 100.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Percentage of insert/update operations.
    pub insert_pct: u8,
    /// Percentage of lookup operations.
    pub lookup_pct: u8,
    /// Percentage of delete operations.
    pub delete_pct: u8,
    /// Percentage of range queries.
    pub range_pct: u8,
}

impl Mix {
    /// `write-only`: 100 % insert (Table 3).
    pub const WRITE_ONLY: Mix = Mix {
        insert_pct: 100,
        lookup_pct: 0,
        delete_pct: 0,
        range_pct: 0,
    };
    /// `write-intensive`: 50 % insert, 50 % lookup (Table 3).
    pub const WRITE_INTENSIVE: Mix = Mix {
        insert_pct: 50,
        lookup_pct: 50,
        delete_pct: 0,
        range_pct: 0,
    };
    /// `read-intensive`: 5 % insert, 95 % lookup (Table 3).
    pub const READ_INTENSIVE: Mix = Mix {
        insert_pct: 5,
        lookup_pct: 95,
        delete_pct: 0,
        range_pct: 0,
    };
    /// `range-only`: 100 % range query (Table 3).
    pub const RANGE_ONLY: Mix = Mix {
        insert_pct: 0,
        lookup_pct: 0,
        delete_pct: 0,
        range_pct: 100,
    };
    /// `range-write`: 50 % insert, 50 % range query (Table 3).
    pub const RANGE_WRITE: Mix = Mix {
        insert_pct: 50,
        lookup_pct: 0,
        delete_pct: 0,
        range_pct: 50,
    };

    /// All five named mixes together with their paper names.
    pub fn named_mixes() -> [(&'static str, Mix); 5] {
        [
            ("write-only", Mix::WRITE_ONLY),
            ("write-intensive", Mix::WRITE_INTENSIVE),
            ("read-intensive", Mix::READ_INTENSIVE),
            ("range-only", Mix::RANGE_ONLY),
            ("range-write", Mix::RANGE_WRITE),
        ]
    }

    /// Whether the percentages sum to 100.
    pub fn is_valid(&self) -> bool {
        self.insert_pct as u16
            + self.lookup_pct as u16
            + self.delete_pct as u16
            + self.range_pct as u16
            == 100
    }

    /// Map a uniform draw in `0..100` to an operation kind.
    pub fn pick(&self, roll: u8) -> OpKind {
        debug_assert!(roll < 100);
        let mut edge = self.insert_pct;
        if roll < edge {
            return OpKind::Insert;
        }
        edge += self.lookup_pct;
        if roll < edge {
            return OpKind::Lookup;
        }
        edge += self.delete_pct;
        if roll < edge {
            return OpKind::Delete;
        }
        OpKind::RangeQuery
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_mixes_are_valid_and_match_table3() {
        for (name, mix) in Mix::named_mixes() {
            assert!(mix.is_valid(), "{name} does not sum to 100");
        }
        assert_eq!(Mix::WRITE_INTENSIVE.insert_pct, 50);
        assert_eq!(Mix::READ_INTENSIVE.lookup_pct, 95);
        assert_eq!(Mix::RANGE_ONLY.range_pct, 100);
    }

    #[test]
    fn op_ratios_sum_to_one() {
        // Every named mix and a custom 4-way mix: the four ratios form a full
        // probability distribution (percentages sum to exactly 100).
        let custom = Mix {
            insert_pct: 25,
            lookup_pct: 40,
            delete_pct: 15,
            range_pct: 20,
        };
        for (name, mix) in Mix::named_mixes()
            .into_iter()
            .chain([("custom", custom)])
        {
            let sum = mix.insert_pct as u16
                + mix.lookup_pct as u16
                + mix.delete_pct as u16
                + mix.range_pct as u16;
            assert_eq!(sum, 100, "{name} ratios sum to {sum}");
            assert!(mix.is_valid());
        }
        // And a mix that does not sum to 100 is rejected.
        let broken = Mix {
            insert_pct: 50,
            lookup_pct: 30,
            delete_pct: 10,
            range_pct: 20,
        };
        assert!(!broken.is_valid());
    }

    #[test]
    fn pick_samples_each_kind_in_proportion() {
        // Exhaustively sweeping the 100 possible rolls must reproduce the mix
        // percentages exactly — `pick` partitions 0..100 into the four bands.
        let mix = Mix {
            insert_pct: 25,
            lookup_pct: 40,
            delete_pct: 15,
            range_pct: 20,
        };
        let mut counts = std::collections::HashMap::new();
        for roll in 0..100u8 {
            *counts.entry(mix.pick(roll)).or_insert(0u32) += 1;
        }
        assert_eq!(counts[&OpKind::Insert], 25);
        assert_eq!(counts[&OpKind::Lookup], 40);
        assert_eq!(counts[&OpKind::Delete], 15);
        assert_eq!(counts[&OpKind::RangeQuery], 20);

        // Kinds with a zero share never appear.
        let mut counts = std::collections::HashMap::new();
        for roll in 0..100u8 {
            *counts.entry(Mix::WRITE_INTENSIVE.pick(roll)).or_insert(0u32) += 1;
        }
        assert_eq!(counts.get(&OpKind::Delete), None);
        assert_eq!(counts.get(&OpKind::RangeQuery), None);
        assert_eq!(counts[&OpKind::Insert], 50);
        assert_eq!(counts[&OpKind::Lookup], 50);
    }

    #[test]
    fn pick_respects_boundaries() {
        let m = Mix::WRITE_INTENSIVE;
        assert_eq!(m.pick(0), OpKind::Insert);
        assert_eq!(m.pick(49), OpKind::Insert);
        assert_eq!(m.pick(50), OpKind::Lookup);
        assert_eq!(m.pick(99), OpKind::Lookup);

        let r = Mix::RANGE_WRITE;
        assert_eq!(r.pick(10), OpKind::Insert);
        assert_eq!(r.pick(75), OpKind::RangeQuery);

        let custom = Mix {
            insert_pct: 10,
            lookup_pct: 60,
            delete_pct: 20,
            range_pct: 10,
        };
        assert!(custom.is_valid());
        assert_eq!(custom.pick(5), OpKind::Insert);
        assert_eq!(custom.pick(30), OpKind::Lookup);
        assert_eq!(custom.pick(75), OpKind::Delete);
        assert_eq!(custom.pick(95), OpKind::RangeQuery);
    }
}
