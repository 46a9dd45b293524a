//! Input generator: auction-site XML text, the facts the oracle needs
//! about it, and the random choices of the op schedules — all from the
//! seed, with an in-crate PRNG.
//!
//! Nothing here touches the system under test: the program only ever
//! receives the generated bytes, so a change to the repository's own
//! workload crate cannot shift what this benchmark measures.
//!
//! Document *shape* depends on the item count alone (node count, bid
//! total and text lengths are fixed per size); the seed picks which item
//! gets how many bids, who sells it, and every name.  Runs on different
//! seeds therefore do the same amount of work on different inputs.

/// xorshift64* seeded through splitmix64 (so small seeds still give
/// well-mixed streams).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { 0x2545_F491_4F6C_DD1D } else { z })
    }

    /// An independent stream for a named purpose (document `k`, the op
    /// schedule, ...), so adding a consumer does not shift the others.
    pub fn fork(seed: u64, stream: u64) -> Self {
        Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `len` lowercase letters.
    fn word(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// Zipf(1.0) sampler over `0..n` by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

pub const REGIONS: [&str; 4] = ["europe", "asia", "namerica", "samerica"];

/// Element and attribute nodes of one item without its bids: `item`,
/// `@id`, `name` + text, `seller`, `@person`, `description` + text.
const NODES_PER_ITEM: usize = 8;
/// `bid` and `@increase`.
const NODES_PER_BID: usize = 2;
/// `person`, `@id`, `name` + text.
const NODES_PER_PERSON: usize = 4;
/// The document root, `site`, `regions`, four regions, `people`.
const FRAME_NODES: usize = 8;

/// What the generator knows about one `<item>`.
#[derive(Clone, Debug, PartialEq)]
pub struct ItemFact {
    /// The number in `id="item<N>"`.
    pub id: usize,
    /// Index into [`REGIONS`].
    pub region: usize,
    pub name: String,
    /// The number in `<seller person="person<N>"/>`.
    pub seller: usize,
    /// `@increase` of each `<bid>`, in document order.
    pub bids: Vec<f64>,
}

/// What the generator knows about one document — the oracle's ground
/// truth, and the shadow state `serve_mixed` updates on every write.
#[derive(Clone, Debug, PartialEq)]
pub struct Facts {
    /// Items in document order (grouped by region).
    pub items: Vec<ItemFact>,
    /// Person names in document order; person `p` has `id="person<p>"`.
    pub persons: Vec<String>,
}

impl Facts {
    /// Total node count of the document (root, elements, attributes and
    /// text nodes) — the `n` of every per-node and exponent metric.
    pub fn node_count(&self) -> usize {
        let bids: usize = self.items.iter().map(|i| i.bids.len()).sum();
        FRAME_NODES
            + self.items.len() * NODES_PER_ITEM
            + bids * NODES_PER_BID
            + self.persons.len() * NODES_PER_PERSON
    }
}

/// One generated input: the bytes the program receives and the facts the
/// oracle keeps.
#[derive(Clone, Debug)]
pub struct AuctionDoc {
    pub xml: String,
    pub facts: Facts,
}

/// Writes an XMark-flavoured auction site with `items` items and as many
/// persons.  Item `i` lives in region `i % 4`; bid counts are the multiset
/// `{i % 5}` dealt out in seed order (two bids per item on average, so
/// about sixteen nodes per item); bid `j` of an item raises by
/// `3 * (j + 1)`.
pub fn auction_doc(seed: u64, stream: u64, items: usize) -> AuctionDoc {
    let mut rng = Rng::fork(seed, stream);
    let mut bid_counts: Vec<usize> = (0..items).map(|i| i % 5).collect();
    rng.shuffle(&mut bid_counts);

    let mut facts = Facts {
        items: Vec::with_capacity(items),
        persons: Vec::with_capacity(items),
    };
    for (region, _) in REGIONS.iter().enumerate() {
        for id in (region..items).step_by(REGIONS.len()) {
            facts.items.push(ItemFact {
                id,
                region,
                name: format!("{} {}", rng.word(6), rng.word(9)),
                seller: rng.below(items),
                bids: (0..bid_counts[id]).map(|j| 3.0 * (j + 1) as f64).collect(),
            });
        }
    }
    for _ in 0..items {
        facts
            .persons
            .push(format!("{} {}", rng.word(5), rng.word(8)));
    }
    AuctionDoc {
        xml: render(&facts),
        facts,
    }
}

/// The XML text of a document with these facts.  Also used by the oracle
/// tests to show that the facts and the bytes agree.
pub fn render(facts: &Facts) -> String {
    let mut xml = String::with_capacity(facts.items.len() * 260);
    xml.push_str("<site><regions>");
    for (r, region) in REGIONS.iter().enumerate() {
        xml.push_str(&format!("<{region}>"));
        for item in facts.items.iter().filter(|i| i.region == r) {
            xml.push_str(&item_xml(item));
        }
        xml.push_str(&format!("</{region}>"));
    }
    xml.push_str("</regions><people>");
    for (p, name) in facts.persons.iter().enumerate() {
        xml.push_str(&format!(
            "<person id=\"person{p}\"><name>{name}</name></person>"
        ));
    }
    xml.push_str("</people></site>");
    xml
}

fn item_xml(item: &ItemFact) -> String {
    let mut xml = format!(
        "<item id=\"item{}\"><name>{}</name><seller person=\"person{}\"/>\
         <description>A reproduction artifact of considerable value.</description>",
        item.id, item.name, item.seller
    );
    for increase in &item.bids {
        xml.push_str(&bid_xml(*increase));
    }
    xml.push_str("</item>");
    xml
}

/// The fragment `serve_mixed` inserts on a `write.insert`.
pub fn bid_xml(increase: f64) -> String {
    format!("<bid increase=\"{increase}\"/>")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = auction_doc(1, 0, 60);
        let b = auction_doc(1, 0, 60);
        assert_eq!(a.xml, b.xml);
        assert_eq!(a.facts, b.facts);
        assert_ne!(a.xml, auction_doc(2, 0, 60).xml);
        assert_ne!(a.xml, auction_doc(1, 1, 60).xml);
    }

    #[test]
    fn shape_depends_on_size_only() {
        for seed in [1, 2, 99] {
            let doc = auction_doc(seed, 0, 595);
            assert_eq!(doc.facts.node_count(), 9528);
            assert_eq!(doc.facts.items.len(), 595);
            let bids: usize = doc.facts.items.iter().map(|i| i.bids.len()).sum();
            assert_eq!(bids, 1190);
        }
        let a = auction_doc(1, 0, 595).xml.len() as f64;
        let b = auction_doc(2, 0, 595).xml.len() as f64;
        assert!((a - b).abs() / a < 0.002, "{a} vs {b}");
    }

    #[test]
    fn render_matches_facts() {
        let doc = auction_doc(7, 3, 20);
        assert_eq!(render(&doc.facts), doc.xml);
        assert_eq!(doc.xml.matches("<item ").count(), 20);
        assert_eq!(doc.xml.matches("<person ").count(), 20);
        assert_eq!(doc.xml.matches("<bid ").count(), 40);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(96);
        let mut rng = Rng::new(5);
        let mut counts = [0usize; 96];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        // Rank 1 has probability 1/H(96) ≈ 0.194.
        assert!((counts[0] as f64 / 20_000.0 - 0.194).abs() < 0.02);
    }

    #[test]
    fn below_is_uniform_enough_and_bounded() {
        let mut rng = Rng::new(1);
        let mut seen = [0usize; 7];
        for _ in 0..7000 {
            seen[rng.below(7)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800 && c < 1200), "{seen:?}");
    }
}
