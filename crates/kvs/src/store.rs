//! A functional Redis-like in-memory key-value store.
//!
//! The Fig. 8 harness models Redis *timing*; this module provides the
//! *functional* store for examples and for experiments that need real
//! values (e.g. verifying that data survives a swap-out/fault-in cycle
//! when the store's backing pages go through zswap). Commands mirror the
//! Redis subset YCSB drives: GET and SET.

use std::collections::HashMap;

/// An in-memory KVS with byte-string keys and values.
///
/// # Examples
///
/// ```
/// use kvs::store::KvStore;
///
/// let mut kv = KvStore::new();
/// kv.set(b"user:1".to_vec(), b"alice".to_vec());
/// assert_eq!(kv.get(b"user:1"), Some(b"alice".as_slice()));
/// assert_eq!(kv.get(b"user:2"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    map: HashMap<Vec<u8>, Vec<u8>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Approximate memory footprint of keys + values in bytes.
    pub fn data_bytes(&self) -> usize {
        self.map.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// GET: the value for `key`, if present.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// SET: stores `value` under `key`, returning the previous value.
    pub fn set(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        self.map.insert(key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut kv = KvStore::new();
        assert_eq!(kv.set(b"k".to_vec(), b"v1".to_vec()), None);
        assert_eq!(kv.set(b"k".to_vec(), b"v2".to_vec()), Some(b"v1".to_vec()));
        assert_eq!(kv.get(b"k"), Some(b"v2".as_slice()));
        assert_eq!(kv.get(b"x"), None);
        assert_eq!(kv.map.len(), 1);
    }

    #[test]
    fn footprint_tracks_data() {
        let mut kv = KvStore::new();
        kv.set(vec![b'x'; 10], vec![b'y'; 90]);
        assert_eq!(kv.data_bytes(), 100);
    }
}
