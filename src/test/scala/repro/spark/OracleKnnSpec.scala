package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.VectorData

/** Result-equality checks against DuckDB: exact KNN ids and block-mean
  * metadata, over long-format (id, dim, val) views of the data.
  */
class OracleKnnSpec extends SparkSpec {

  private def fixture(d: Int, n: Int, seed: Long) = {
    val ds = VectorData.generate(
      VectorData.DatasetSpec("oracle", d, n, 3, skewed = false, clusters = 4, seed = seed))
    val df = PdxSpark.toVectorDF(spark, ds.vectors, numPartitions = 3)
    (ds, df, explodeVectors(df))
  }

  /** Long-format (id, dim, val) view of a vector DataFrame — the shape both
    * Spark and DuckDB can aggregate.
    */
  private def explodeVectors(df: DataFrame): DataFrame =
    df.select(col("id"), posexplode(col("vec")).as(Seq("dim", "val")))

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
}
