//! Streaming node-set results.
//!
//! `Value::NodeSet` materializes the full result vector.  For large results
//! — or consumers that only need a prefix — [`NodeStream`] yields the
//! selected nodes **in document order, as they are decided**, without ever
//! allocating the result vector:
//!
//! * under the [`crate::EvalStrategy::CoreXPathLinear`] plan the set-at-a-
//!   time algorithm produces a [`NodeBitSet`]; the stream walks the
//!   document-order table and yields the set bits lazily,
//! * under the [`crate::EvalStrategy::SingletonSuccess`] and
//!   [`crate::EvalStrategy::Parallel`] plans each candidate node's
//!   membership is an independent Singleton-Success decision
//!   (Definition 5.3), so the stream *decides as it advances*: consuming
//!   only the first `k` matches only decides the candidates up to the
//!   `k`-th match — this is the Theorem 5.5 loop turned into an iterator,
//! * the remaining strategies have no incremental formulation; the stream
//!   falls back to a materialized result (still yielded in document order).
//!
//! Obtain a stream from [`crate::CompiledQuery::run_streaming`] /
//! [`crate::CompiledQuery::run_streaming_prepared`], or push-style via the
//! visitor form [`crate::CompiledQuery::run_visit`].

use crate::error::EvalError;
use crate::sets::NodeBitSet;
use std::borrow::Cow;
use xpeval_dom::NodeId;

/// How a [`NodeStream`] produces its nodes; reported by
/// [`NodeStream::mode`] so tests and callers can assert on laziness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamMode {
    /// Lazy walk over a set-at-a-time result bitset (linear plan): no
    /// result vector exists at any point.
    Bitset,
    /// Per-candidate Singleton-Success decisions made on demand: work is
    /// proportional to the candidates actually examined.
    Decide,
    /// The strategy had no incremental formulation; the result was
    /// materialized before streaming.
    Materialized,
}

/// The membership oracle of a [`StreamMode::Decide`] stream.
type DecideFn<'s> = Box<dyn FnMut(NodeId) -> Result<bool, EvalError> + 's>;

enum Inner<'s> {
    Bits {
        bits: NodeBitSet,
        order: Cow<'s, [NodeId]>,
        ix: usize,
    },
    Decide {
        candidates: Cow<'s, [NodeId]>,
        decide: DecideFn<'s>,
        ix: usize,
    },
    Materialized(std::vec::IntoIter<NodeId>),
}

/// An iterator over a query's node-set result in document order.
///
/// Yields `Result` items because membership decisions can fail mid-stream
/// (for the decide-as-you-go modes); once an error is yielded the stream is
/// exhausted.
pub struct NodeStream<'s> {
    inner: Inner<'s>,
    scanned: usize,
}

impl<'s> NodeStream<'s> {
    pub(crate) fn from_bits(bits: NodeBitSet, order: Cow<'s, [NodeId]>) -> Self {
        NodeStream {
            inner: Inner::Bits { bits, order, ix: 0 },
            scanned: 0,
        }
    }

    pub(crate) fn from_decide(candidates: Cow<'s, [NodeId]>, decide: DecideFn<'s>) -> Self {
        NodeStream {
            inner: Inner::Decide {
                candidates,
                decide,
                ix: 0,
            },
            scanned: 0,
        }
    }

    pub(crate) fn from_vec(nodes: Vec<NodeId>) -> Self {
        NodeStream {
            inner: Inner::Materialized(nodes.into_iter()),
            scanned: 0,
        }
    }

    /// How this stream produces its nodes.
    pub fn mode(&self) -> StreamMode {
        match self.inner {
            Inner::Bits { .. } => StreamMode::Bitset,
            Inner::Decide { .. } => StreamMode::Decide,
            Inner::Materialized(_) => StreamMode::Materialized,
        }
    }

    /// Number of candidate nodes examined so far.  For a
    /// [`StreamMode::Decide`] stream this is the laziness witness: after
    /// consuming only `k` matches it is strictly less than the document
    /// size whenever matches remain.
    pub fn nodes_scanned(&self) -> usize {
        self.scanned
    }

    /// Drains the stream into a vector (document order, no duplicates) —
    /// the bridge back to the materialized API.
    pub fn collect_nodes(self) -> Result<Vec<NodeId>, EvalError> {
        self.collect()
    }
}

impl Iterator for NodeStream<'_> {
    type Item = Result<NodeId, EvalError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            Inner::Bits { bits, order, ix } => {
                while *ix < order.len() {
                    let node = order[*ix];
                    *ix += 1;
                    self.scanned += 1;
                    if bits.contains(node) {
                        return Some(Ok(node));
                    }
                }
                None
            }
            Inner::Decide {
                candidates,
                decide,
                ix,
            } => {
                while *ix < candidates.len() {
                    let node = candidates[*ix];
                    *ix += 1;
                    self.scanned += 1;
                    match decide(node) {
                        Ok(true) => return Some(Ok(node)),
                        Ok(false) => {}
                        Err(e) => {
                            // Poison the stream: further `next` calls see an
                            // exhausted candidate list.
                            *ix = candidates.len();
                            return Some(Err(e));
                        }
                    }
                }
                None
            }
            Inner::Materialized(it) => {
                let node = it.next()?;
                self.scanned += 1;
                Some(Ok(node))
            }
        }
    }
}

impl std::fmt::Debug for NodeStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStream")
            .field("mode", &self.mode())
            .field("nodes_scanned", &self.scanned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ixs: &[usize]) -> Vec<NodeId> {
        ixs.iter().copied().map(NodeId::from_index).collect()
    }

    #[test]
    fn bitset_stream_yields_members_in_order() {
        let mut bits = NodeBitSet::empty(6);
        bits.insert(NodeId::from_index(1));
        bits.insert(NodeId::from_index(4));
        let order = ids(&[0, 1, 2, 3, 4, 5]);
        let stream = NodeStream::from_bits(bits, Cow::Owned(order));
        assert_eq!(stream.mode(), StreamMode::Bitset);
        let got: Vec<NodeId> = stream.map(Result::unwrap).collect();
        assert_eq!(got, ids(&[1, 4]));
    }

    #[test]
    fn decide_stream_is_lazy() {
        let candidates = ids(&[0, 1, 2, 3, 4, 5]);
        let mut stream = NodeStream::from_decide(
            Cow::Owned(candidates),
            Box::new(|n: NodeId| Ok(n.index().is_multiple_of(2))),
        );
        assert_eq!(stream.mode(), StreamMode::Decide);
        assert_eq!(stream.next().unwrap().unwrap(), NodeId::from_index(0));
        assert_eq!(stream.next().unwrap().unwrap(), NodeId::from_index(2));
        // Only candidates 0..=2 have been examined.
        assert_eq!(stream.nodes_scanned(), 3);
    }

    #[test]
    fn decide_errors_poison_the_stream() {
        let candidates = ids(&[0, 1, 2]);
        let mut stream = NodeStream::from_decide(
            Cow::Owned(candidates),
            Box::new(|n: NodeId| {
                if n.index() == 1 {
                    Err(EvalError::type_error("boom"))
                } else {
                    Ok(true)
                }
            }),
        );
        assert!(stream.next().unwrap().is_ok());
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none());
    }

    #[test]
    fn materialized_stream_passthrough() {
        let stream = NodeStream::from_vec(ids(&[3, 5]));
        assert_eq!(stream.mode(), StreamMode::Materialized);
        let got: Vec<NodeId> = stream.map(Result::unwrap).collect();
        assert_eq!(got, ids(&[3, 5]));
    }
}
