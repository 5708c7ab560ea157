-- Paper running example (Listing 1/4 shapes): grouped measures, the
-- AGGREGATE(m) == m AT (VISIBLE) identity, and the ALL/SET round-trip on
-- the Orders data. Every query runs through the full six-leg differential
-- oracle plus the textual-expansion leg.
CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, orderDate DATE, revenue INTEGER);
INSERT INTO Orders VALUES ('Shirt', 'Alice', DATE '2024-01-05', 10), ('Shirt', 'Bob', DATE '2024-02-10', 20), ('Hat', 'Alice', DATE '2024-03-15', 5), ('Hat', 'Cy', DATE '2025-01-20', 15), ('Shirt', 'Cy', DATE '2025-02-25', 30);
CREATE VIEW EnhancedOrders AS SELECT *, SUM(revenue) AS MEASURE totalRevenue, COUNT(*) AS MEASURE orderCount, YEAR(orderDate) AS orderYear FROM Orders;
-- check: differential  (grouped-bare)
SELECT prodName, totalRevenue FROM EnhancedOrders GROUP BY prodName;
-- check: differential  (share-of-total)
SELECT prodName, totalRevenue, totalRevenue AT (ALL prodName) AS total FROM EnhancedOrders GROUP BY prodName;
-- check: differential  (year-over-year)
SELECT orderYear, totalRevenue, totalRevenue AT (SET orderYear = CURRENT orderYear - 1) AS prev FROM EnhancedOrders GROUP BY orderYear;
-- check: equal  (aggregate-equals-at-visible)
SELECT prodName, AGGREGATE(totalRevenue) AS x FROM EnhancedOrders WHERE custName <> 'Bob' GROUP BY prodName;
SELECT prodName, totalRevenue AT (VISIBLE) AS x FROM EnhancedOrders WHERE custName <> 'Bob' GROUP BY prodName;
-- check: equal  (all-set-roundtrip)
SELECT prodName, totalRevenue AS x FROM EnhancedOrders GROUP BY prodName;
SELECT prodName, totalRevenue AT (ALL prodName SET prodName = CURRENT prodName) AS x FROM EnhancedOrders GROUP BY prodName;
