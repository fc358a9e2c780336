// Wildfire–parks analytics: the paper's motivating Query 1. Which
// parks were affected by recent wildfires? A spatial join between park
// boundary polygons and wildfire points, combined with filtering,
// aggregation, and ordering — the kind of query only a join integrated
// into the full optimizer can run well.
//
// The example runs the query three ways (the paper's three arms) and
// prints the timings: FUDJ, the hand-built built-in operator, and the
// on-top NLJ with a scalar predicate.
package main

import (
	"fmt"
	"log"

	"fudj"
)

func main() {
	db := fudj.MustOpen(fudj.WithCluster(4, 2))

	// Load synthetic stand-ins for the UCR-STAR Parks and WildfireDB
	// datasets (Table I).
	if err := fudj.LoadGenerated(db, "parks", fudj.GenParks(1, 3000)); err != nil {
		log.Fatal(err)
	}
	if err := fudj.LoadGenerated(db, "wildfires", fudj.GenWildfires(2, 6000)); err != nil {
		log.Fatal(err)
	}

	// Install the spatial FUDJ library and create the join.
	if err := db.InstallLibrary(fudj.SpatialLibrary()); err != nil {
		log.Fatal(err)
	}
	mustExec(db, `CREATE JOIN spatial_join(a: geometry, b: geometry, n: int)
		RETURNS boolean AS "pbsm.SpatialJoin" AT spatialjoins`)
	db.RegisterBuiltinJoin("spatial_join", fudj.BuiltinSpatialPlaneSweep)

	// The paper's Query 1, in this engine's dialect: recent wildfires
	// contained in each park boundary, counted per park, busiest first.
	fudjQuery := `
		SELECT p.id, COUNT(w.id) AS num_fires
		FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 32) AND w.year >= 2022
		GROUP BY p.id
		ORDER BY num_fires DESC, p.id
		LIMIT 10`
	onTopQuery := `
		SELECT p.id, COUNT(w.id) AS num_fires
		FROM parks p, wildfires w
		WHERE st_contains(p.boundary, w.location) AND w.year >= 2022
		GROUP BY p.id
		ORDER BY num_fires DESC, p.id
		LIMIT 10`

	// Arm 1: FUDJ.
	res, err := db.Execute(fudjQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parks hit by the most wildfires since 2022 (FUDJ plan):")
	for _, row := range res.Rows {
		fmt.Printf("  park %-6v %v fires\n", row[0], row[1])
	}
	fmt.Printf("FUDJ:     %v  (%d candidates -> %d verified, %d B shuffled)\n",
		res.Elapsed, res.Join.Candidates, res.Join.Verified, res.Cluster.BytesShuffled)

	// Arm 2: the hand-built plane-sweep operator.
	db.MustConfigure(fudj.WithJoinMode(fudj.ModeBuiltin))
	res2, err := db.Execute(fudjQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Built-in: %v\n", res2.Elapsed)
	db.MustConfigure(fudj.WithJoinMode(fudj.ModeFUDJ))

	// Arm 3: on-top (NLJ + scalar UDF), the slow baseline.
	res3, err := db.Execute(onTopQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("On-top:   %v  (%d candidates)\n", res3.Elapsed, res3.Join.Candidates)
	fmt.Printf("\nFUDJ speed-up over on-top: %.1fx\n",
		res3.Elapsed.Seconds()/res.Elapsed.Seconds())
}

func mustExec(db *fudj.DB, sql string) {
	if _, err := db.Execute(sql); err != nil {
		log.Fatal(err)
	}
}
