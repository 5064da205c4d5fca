SELECT r1.k AS o0, r1.x AS o1 FROM r1 JOIN r2 ON r1.x + 1 = r2.y AND r1.k = r2.k ORDER BY r1.k
