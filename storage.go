package fudj

import (
	"io"

	"fudj/internal/storage"
)

// Dataset persistence: the binary format the engine uses to save and
// reload datasets, plus a TSV importer for externally prepared data.

// SaveDataset writes a dataset from db to path in the binary format.
// The file appears at path only once it is complete.
func SaveDataset(db *DB, name, path string) error {
	ds, err := db.Catalog().Dataset(name)
	if err != nil {
		return err
	}
	return storage.WriteDataset(path, ds.Name, ds.Schema, ds.Records)
}

// LoadDataset reads a binary dataset file and creates it in db under
// the given name.
func LoadDataset(db *DB, name, path string) error {
	_, schema, recs, err := storage.ReadDataset(path)
	if err != nil {
		return err
	}
	return db.CreateDataset(name, schema, recs)
}

// ImportTSV reads records in cmd/datagen's TSV layout against the
// provided schema and creates the dataset in db.
func ImportTSV(db *DB, name string, schema *Schema, r io.Reader) error {
	recs, err := storage.ReadTSV(r, schema)
	if err != nil {
		return err
	}
	return db.CreateDataset(name, schema, recs)
}
