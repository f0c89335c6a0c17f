package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.VectorData

/** Result-equality checks against DuckDB: exact KNN ids, range counts, and
  * block-mean metadata, over long-format (id, dim, val) views of the data.
  */
class OracleKnnSpec extends SparkSpec {

  private def fixture(d: Int, n: Int, seed: Long) = {
    val ds = VectorData.generate(
      VectorData.DatasetSpec("oracle", d, n, 3, skewed = false, clusters = 4, seed = seed))
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 3)
    (ds, df, PdxSpark.explodeVectors(df))
  }

  private def queryDF(q: Array[Float]): DataFrame = {
    import spark.implicits._
    q.toSeq.zipWithIndex.map { case (v, i) => (i, v) }.toDF("dim", "val")
  }

  private val knnSql = (k: Int) =>
    s"""SELECT v.id AS id
       |FROM vectors v JOIN query q ON v.dim = q.dim
       |GROUP BY v.id
       |ORDER BY SUM((CAST(v.val AS DOUBLE) - CAST(q.val AS DOUBLE))
       |           * (CAST(v.val AS DOUBLE) - CAST(q.val AS DOUBLE))), CAST(v.id AS BIGINT)
       |LIMIT $k""".stripMargin

  for ((d, n, seed) <- Seq((8, 150, 901L), (16, 200, 902L), (24, 300, 903L), (32, 250, 904L))) {
    test(s"exact KNN ids match DuckDB (d=$d, n=$n)") {
      val (ds, df, longDf) = fixture(d, n, seed)
      val blocks = PdxSpark.pack(df, 64)
      val sparkRes = PdxSpark.knnExact(blocks, ds.queries.head, 5).select("id")
      Oracle.assertEquivalent(sparkRes, knnSql(5),
        "vectors" -> longDf, "query" -> queryDF(ds.queries.head))
    }

    test(s"PDX-BOND KNN ids match DuckDB (d=$d, n=$n)") {
      val (ds, df, longDf) = fixture(d, n, seed)
      val blocks = PdxSpark.pack(df, 32)
      val sparkRes = PdxSpark.knnBond(blocks, ds.queries(1), 5).select("id")
      Oracle.assertEquivalent(sparkRes, knnSql(5),
        "vectors" -> longDf, "query" -> queryDF(ds.queries(1)))
    }
  }

  test("range count matches DuckDB") {
    val (ds, df, longDf) = fixture(12, 300, 905L)
    val q = ds.queries.head
    val dists = ds.vectors.map(v => repro.core.Kernels.l2Ref(v, q)).sorted
    val r2 = (dists(40) + dists(41)) / 2.0 // radius between two distances: no boundary ties
    val blocks = PdxSpark.pack(df, 64)
    val sparkRes = PdxSpark.rangeCount(blocks, q, r2)
    Oracle.assertEquivalent(sparkRes,
      s"""SELECT COUNT(*) AS c FROM (
         |  SELECT v.id
         |  FROM vectors v JOIN query q ON v.dim = q.dim
         |  GROUP BY v.id
         |  HAVING SUM((CAST(v.val AS DOUBLE) - CAST(q.val AS DOUBLE))
         |           * (CAST(v.val AS DOUBLE) - CAST(q.val AS DOUBLE))) < $r2
         |) t""".stripMargin,
      "vectors" -> longDf, "query" -> queryDF(q))
  }

  test("block means metadata matches DuckDB per-dimension averages") {
    val (_, df, longDf) = fixture(10, 120, 906L)
    // One partition + huge block => a single block whose means are the
    // collection means.
    val blocks = PdxSpark.pack(df.coalesce(1), blockSize = 1 << 20)
    import spark.implicits._
    val meansDf = blocks.flatMap(b => b.means.zipWithIndex.map { case (m, i) => (i, m) })
      .toDF("dim", "m")
      .select(col("dim"), round(col("m").cast("double"), 3).as("m"))
    Oracle.assertEquivalent(meansDf,
      "SELECT dim, ROUND(AVG(CAST(val AS DOUBLE)), 3) AS m FROM vectors GROUP BY dim",
      "vectors" -> longDf)
  }

  test("per-vector squared norms match DuckDB (suffix-norm base case)") {
    val (_, df, longDf) = fixture(9, 80, 907L)
    val blocks = PdxSpark.pack(df, 64, withSuffixNorms = true)
    import spark.implicits._
    val normsDf = blocks.flatMap { b =>
      (0 until b.n).map(i => (b.ids(i), b.suffix.apply(i * (b.d + 1)).toDouble))
    }.toDF("id", "n2").select(col("id"), round(col("n2"), 2).as("n2"))
    Oracle.assertEquivalent(normsDf,
      "SELECT id, ROUND(SUM(CAST(val AS DOUBLE) * CAST(val AS DOUBLE)), 2) AS n2 " +
        "FROM vectors GROUP BY id",
      "vectors" -> longDf)
  }
}
