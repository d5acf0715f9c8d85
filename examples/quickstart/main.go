// Quickstart: integrate one relational source behind a mediated schema
// and query it with XML-QL — the minimal end-to-end path through the
// system.
package main

import (
	"context"
	"fmt"
	"log"

	nimble "repro"
)

func main() {
	sys := nimble.New(nimble.Config{})

	// 1. A relational source (in production this is a customer DBMS; the
	// embedded engine stands in for it).
	db := nimble.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR, city VARCHAR)`)
	db.MustExec(`INSERT INTO customers VALUES
		(1, 'Ada Lovelace', 'London'),
		(2, 'Alan Turing', 'Cambridge'),
		(3, 'Grace Hopper', 'New York')`)
	if err := sys.AddRelationalSource("crmdb", db); err != nil {
		log.Fatal(err)
	}

	// 2. A mediated schema: a global-as-view XML-QL definition over the
	// source. Users query this schema, never the source directly.
	if err := sys.DefineSchema("customers", `
		WHERE <customer><name>$n</name><city>$c</city></customer> IN "crmdb"
		CONSTRUCT <cust><who>$n</who><where>$c</where></cust>`); err != nil {
		log.Fatal(err)
	}

	// 3. Query. The predicate is compiled into SQL and pushed to the
	// source (see the FuncScan leaf of the plan printed below).
	res, err := sys.Query(context.Background(), `
		WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "London"
		CONSTRUCT <londoner>$w</londoner>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.XML())
	fmt.Println("complete:", res.Complete)
	fmt.Print(res.Explain.Render())
}
