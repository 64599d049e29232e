//! A table with one slot per client id, for the reply cache.
//!
//! Client ids are dense in practice (a host numbers its clients from 0),
//! so the table keeps them in chunks of [`W`] consecutive ids: a write or a
//! read is one lookup in a map of `clients / W` keys plus an array index,
//! where a map of every client would search a tree of all of them.

use flexitrust_types::ClientId;
use std::collections::BTreeMap;

/// Consecutive client ids per chunk.
///
/// Memory: a chunk holds all `W` slots, so one client id alone in its
/// chunk costs `W × size_of::<Option<T>>()` bytes. For the reply cache's
/// `ClientReply` entries (64 bytes on 64-bit targets) that is 4 KiB per
/// sparse id; dense ids pay only the slots they fill. On the 2 000-client
/// LAN simulation 16 and 256 ran within the run-to-run spread of 64, and
/// 1 024 ran about a quarter slower.
const W: u64 = 64;

/// One slot per client id, latest entry wins; chunks of [`W`] ids,
/// allocated on the first write into them and freed when emptied.
#[derive(Debug)]
pub(crate) struct ClientTable<T> {
    chunks: BTreeMap<u64, Box<[Option<T>; W as usize]>>,
}

impl<T> Default for ClientTable<T> {
    fn default() -> Self {
        ClientTable {
            chunks: BTreeMap::new(),
        }
    }
}

/// The chunk key and the slot index of `client`.
fn locate(client: ClientId) -> (u64, usize) {
    (client.0 / W, (client.0 % W) as usize)
}

impl<T> ClientTable<T> {
    /// The entry of `client`, if one is held.
    pub(crate) fn get(&self, client: ClientId) -> Option<&T> {
        let (chunk, slot) = locate(client);
        self.chunks.get(&chunk)?[slot].as_ref()
    }

    /// Stores `entry` as the entry of `client`, dropping the one it
    /// replaces.
    pub(crate) fn insert(&mut self, client: ClientId, entry: T) {
        let (chunk, slot) = locate(client);
        let chunk = self
            .chunks
            .entry(chunk)
            .or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        chunk[slot] = Some(entry);
    }

    /// Keeps only the entries `keep` accepts and frees every chunk left
    /// empty.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.chunks.retain(|_, chunk| {
            let mut live = false;
            for slot in chunk.iter_mut() {
                if slot.as_ref().is_some_and(|entry| !keep(entry)) {
                    *slot = None;
                }
                live |= slot.is_some();
            }
            live
        });
    }

    /// Number of allocated chunks.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ClientReply;

    /// Ids on both sides of every chunk edge the table has, and far out.
    const IDS: [u64; 8] = [0, 1, W - 1, W, W + 1, 3 * W, 1 << 40, u64::MAX - 1];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Inserts, overwrites and `retain`s over ids at chunk edges and
        /// far apart: the table answers every `get` like a map of clients,
        /// and holds exactly the chunks the map's clients fall in.
        #[test]
        fn chunked_table_answers_like_a_map(
            ops in proptest::collection::vec(proptest::any::<u64>(), 0..200),
        ) {
            let mut table = ClientTable::default();
            let mut model = BTreeMap::new();
            for op in ops {
                let client = ClientId(IDS[(op % IDS.len() as u64) as usize]);
                let value = op >> 32;
                if op / 8 % 6 == 0 {
                    // Keep the entries of one residue class of values.
                    let (modulus, residue) = (op / 48 % 3 + 2, op / 144 % 2);
                    table.retain(|v: &u64| v % modulus == residue);
                    model.retain(|_, v: &mut u64| *v % modulus == residue);
                } else {
                    table.insert(client, value);
                    model.insert(client, value);
                }
                for id in IDS {
                    proptest::prop_assert_eq!(table.get(ClientId(id)), model.get(&ClientId(id)));
                }
                let mut keys: Vec<u64> = model.keys().map(|c| c.0 / W).collect();
                keys.dedup();
                proptest::prop_assert_eq!(table.chunks(), keys.len());
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_chunk_of_replies_is_as_large_as_its_doc_says() {
        let slot = std::mem::size_of::<Option<ClientReply>>();
        assert_eq!((slot, W as usize * slot), (64, 4096));
    }
}
