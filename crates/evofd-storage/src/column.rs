//! Dictionary-encoded columns.
//!
//! Every column stores its values as dense `u32` codes into a per-column
//! dictionary. This is the core representation the whole system leans on:
//! distinct counting, partition refinement and clustering all operate on
//! codes, never on raw values. NULL is the sentinel code [`NULL_CODE`] and is
//! not part of the dictionary.

use std::collections::HashMap;

use crate::error::{Result, StorageError};
use crate::value::{DataType, Value};

/// Sentinel code representing NULL. Never a valid dictionary index.
pub const NULL_CODE: u32 = u32::MAX;

/// Mapping between values and dense codes.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Value>,
    index: HashMap<Value, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Encode a non-null value, interning it if unseen.
    pub fn encode(&mut self, value: Value) -> u32 {
        debug_assert!(!value.is_null(), "NULL must use NULL_CODE, not the dictionary");
        if let Some(&code) = self.index.get(&value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(value.clone());
        self.index.insert(value, code);
        code
    }

    /// Look up a value without interning.
    pub fn lookup(&self, value: &Value) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Decode a code back to its value.
    pub fn decode(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All interned values, in code order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// A dictionary-encoded column of a relation.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    dtype: DataType,
    dict: Dictionary,
    codes: Vec<u32>,
    null_count: usize,
}

impl Column {
    /// New empty column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Column {
        Column {
            name: name.into(),
            dtype,
            dict: Dictionary::new(),
            codes: Vec::new(),
            null_count: 0,
        }
    }

    /// New empty column with row capacity pre-reserved.
    pub fn with_capacity(name: impl Into<String>, dtype: DataType, rows: usize) -> Column {
        let mut c = Column::new(name, dtype);
        c.codes.reserve(rows);
        c
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Append a value, type-checking and widening ints into float columns.
    pub fn push(&mut self, value: Value) -> Result<()> {
        if !value.fits(self.dtype) {
            return Err(StorageError::TypeMismatch {
                column: self.name.clone(),
                expected: self.dtype.to_string(),
                value: value.to_string(),
            });
        }
        if value.is_null() {
            self.codes.push(NULL_CODE);
            self.null_count += 1;
        } else {
            let code = self.dict.encode(value.coerce(self.dtype));
            self.codes.push(code);
        }
        Ok(())
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dictionary code at a row (NULL ⇒ [`NULL_CODE`]).
    pub fn code_at(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The raw code slice (hot path for partition refinement and for
    /// building group keys).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The value at a row (NULL ⇒ `Value::Null`).
    pub fn value_at(&self, row: usize) -> Value {
        let code = self.codes[row];
        if code == NULL_CODE {
            Value::Null
        } else {
            self.dict.decode(code).clone()
        }
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of NULL cells.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// True iff the column contains at least one NULL.
    pub fn has_nulls(&self) -> bool {
        self.null_count > 0
    }

    /// Number of distinct non-null values (`|π_A(r)|` ignoring NULL
    /// duplicates). Because the dictionary only ever grows when a fresh
    /// value arrives, this is exact for append-only columns.
    pub fn distinct_non_null(&self) -> usize {
        self.dict.len()
    }

    /// Number of distinct values counting NULL as one value, i.e. the
    /// paper's `|π_A(r)|` under SQL `COUNT(DISTINCT)`-with-NULL-group
    /// semantics used for clusterings (all NULL rows form one class).
    pub fn distinct_with_null(&self) -> usize {
        self.dict.len() + usize::from(self.null_count > 0)
    }

    /// True iff every non-null value occurs exactly once and there is at
    /// most one NULL — i.e. the column is UNIQUE over the current rows.
    pub fn is_unique(&self) -> bool {
        self.dict.len() + self.null_count == self.codes.len() && self.null_count <= 1
    }

    /// Build a new column containing only the rows at `keep` (in order).
    pub fn gather(&self, keep: &[usize]) -> Column {
        let mut out = Column::with_capacity(self.name.clone(), self.dtype, keep.len());
        for &row in keep {
            let code = self.codes[row];
            if code == NULL_CODE {
                out.codes.push(NULL_CODE);
                out.null_count += 1;
            } else {
                let new_code = out.dict.encode(self.dict.decode(code).clone());
                out.codes.push(new_code);
            }
        }
        out
    }

    /// Build a new column containing the first `n` rows.
    pub fn head(&self, n: usize) -> Column {
        let keep: Vec<usize> = (0..n.min(self.len())).collect();
        self.gather(&keep)
    }

    /// Reassemble a column from its raw physical parts — the dictionary
    /// values in code order plus the per-row code array. This is the
    /// deserialization entry point for on-disk columnar snapshots
    /// (`evofd-persist`): the reconstructed column is bit-identical to the
    /// one that was serialized, so dictionary codes recorded elsewhere
    /// (e.g. incremental tracker keys) remain valid.
    ///
    /// Every dictionary value must be non-null, fit `dtype` and be unique;
    /// every code must be [`NULL_CODE`] or index the dictionary.
    pub fn from_parts(
        name: impl Into<String>,
        dtype: DataType,
        dict_values: Vec<Value>,
        codes: Vec<u32>,
    ) -> Result<Column> {
        let name = name.into();
        let mut dict = Dictionary::new();
        for v in dict_values {
            if v.is_null() || !v.fits(dtype) {
                return Err(StorageError::TypeMismatch {
                    column: name,
                    expected: dtype.to_string(),
                    value: v.to_string(),
                });
            }
            let expected = dict.len() as u32;
            if dict.encode(v.clone()) != expected {
                return Err(StorageError::TypeMismatch {
                    column: name,
                    expected: "unique dictionary values".into(),
                    value: v.to_string(),
                });
            }
        }
        let mut null_count = 0usize;
        for &code in &codes {
            if code == NULL_CODE {
                null_count += 1;
            } else if code as usize >= dict.len() {
                return Err(StorageError::TypeMismatch {
                    column: name,
                    expected: format!("code < {}", dict.len()),
                    value: code.to_string(),
                });
            }
        }
        Ok(Column { name, dtype, dict, codes, null_count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_interns_once() {
        let mut d = Dictionary::new();
        let a = d.encode(Value::str("x"));
        let b = d.encode(Value::str("x"));
        let c = d.encode(Value::str("y"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.len(), 2);
        assert_eq!(*d.decode(a), Value::str("x"));
        assert_eq!(d.lookup(&Value::str("y")), Some(c));
        assert_eq!(d.lookup(&Value::str("z")), None);
    }

    #[test]
    fn push_and_read_back() {
        let mut c = Column::new("a", DataType::Int);
        c.push(Value::Int(10)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(10)).unwrap();
        c.push(Value::Int(20)).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.value_at(0), Value::Int(10));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.code_at(0), c.code_at(2), "equal values share codes");
        assert_eq!(c.null_count(), 1);
        assert!(c.has_nulls());
        assert_eq!(c.distinct_non_null(), 2);
        assert_eq!(c.distinct_with_null(), 3);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new("a", DataType::Int);
        let err = c.push(Value::str("oops")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn int_widened_into_float_column() {
        let mut c = Column::new("f", DataType::Float);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.value_at(0), Value::Float(2.0));
    }

    #[test]
    fn uniqueness_detection() {
        let mut c = Column::new("id", DataType::Int);
        for i in 0..5 {
            c.push(Value::Int(i)).unwrap();
        }
        assert!(c.is_unique());
        c.push(Value::Int(0)).unwrap();
        assert!(!c.is_unique());
    }

    #[test]
    fn unique_with_single_null() {
        let mut c = Column::new("id", DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        assert!(c.is_unique());
        c.push(Value::Null).unwrap();
        assert!(!c.is_unique(), "two NULL rows duplicate under grouping");
    }

    #[test]
    fn gather_reencodes() {
        let mut c = Column::new("a", DataType::Str);
        for s in ["p", "q", "r", "q"] {
            c.push(Value::str(s)).unwrap();
        }
        let g = c.gather(&[3, 1]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.value_at(0), Value::str("q"));
        assert_eq!(g.value_at(1), Value::str("q"));
        assert_eq!(g.distinct_non_null(), 1, "dictionary rebuilt, unused values dropped");
    }

    #[test]
    fn from_parts_round_trips() {
        let mut c = Column::new("a", DataType::Str);
        for s in ["p", "q", "p"] {
            c.push(Value::str(s)).unwrap();
        }
        c.push(Value::Null).unwrap();
        let rebuilt =
            Column::from_parts("a", DataType::Str, c.dict().values().to_vec(), c.codes().to_vec())
                .unwrap();
        assert_eq!(rebuilt.codes(), c.codes());
        assert_eq!(rebuilt.dict().values(), c.dict().values());
        assert_eq!(rebuilt.null_count(), 1);
        assert_eq!(rebuilt.value_at(2), Value::str("p"));
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        // Code beyond the dictionary.
        assert!(Column::from_parts("a", DataType::Str, vec![Value::str("x")], vec![1]).is_err());
        // NULL inside the dictionary.
        assert!(Column::from_parts("a", DataType::Str, vec![Value::Null], vec![]).is_err());
        // Type mismatch between dictionary value and column type.
        assert!(Column::from_parts("a", DataType::Int, vec![Value::str("x")], vec![]).is_err());
        // Duplicate dictionary value.
        assert!(Column::from_parts(
            "a",
            DataType::Str,
            vec![Value::str("x"), Value::str("x")],
            vec![]
        )
        .is_err());
        // NULL_CODE is always acceptable.
        let c = Column::from_parts("a", DataType::Str, vec![], vec![NULL_CODE]).unwrap();
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn head_takes_prefix() {
        let mut c = Column::new("a", DataType::Int);
        for i in 0..10 {
            c.push(Value::Int(i)).unwrap();
        }
        let h = c.head(3);
        assert_eq!(h.len(), 3);
        assert_eq!(h.value_at(2), Value::Int(2));
        assert_eq!(c.head(99).len(), 10, "head clamps to length");
    }
}
