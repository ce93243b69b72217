//! Wire messages of the gossip exchange.

use crate::{NodeDescriptor, NodeId};

/// A view-exchange request sent by the active thread to its selected peer.
///
/// * In `push` and `pushpull` mode `descriptors` carries the sender's view
///   merged with its own fresh descriptor.
/// * In `pull` mode `descriptors` is empty — "empty view to trigger
///   response" in the paper's skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Pushed view content (possibly empty for pull-only).
    pub descriptors: Vec<NodeDescriptor>,
    /// True if the receiver must answer with its own view (pull/pushpull).
    pub wants_reply: bool,
}

impl Request {
    /// Number of descriptors carried; a proxy for message size.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True if no descriptors are carried (a pure pull request).
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }
}

/// The passive thread's response to a [`Request`] with `wants_reply`,
/// carrying the responder's view merged with its own fresh descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The responder's view content.
    pub descriptors: Vec<NodeDescriptor>,
}

impl Reply {
    /// Number of descriptors carried; a proxy for message size.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True if no descriptors are carried (responder had an empty view and
    /// contributed only its own descriptor — never the case in practice, but
    /// handled).
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }
}

/// An initiated exchange: the chosen peer and the request to deliver to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    /// The peer selected from the initiator's view.
    pub peer: NodeId,
    /// The request to deliver.
    pub request: Request,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_len_and_empty() {
        let pull = Request {
            descriptors: vec![],
            wants_reply: true,
        };
        assert!(pull.is_empty());
        assert_eq!(pull.len(), 0);

        let push = Request {
            descriptors: vec![NodeDescriptor::fresh(NodeId::new(1))],
            wants_reply: false,
        };
        assert!(!push.is_empty());
        assert_eq!(push.len(), 1);
    }

    #[test]
    fn reply_len_and_empty() {
        let r = Reply {
            descriptors: vec![NodeDescriptor::fresh(NodeId::new(2)); 3],
        };
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(Reply {
            descriptors: vec![]
        }
        .is_empty());
    }
}
