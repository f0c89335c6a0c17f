package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  test("embeddings are deterministic and independent of partitioning") {
    val a = SynthData.embeddings(spark, 300, 12, clusters = 8, seed = 5)
      .collect().map(r => (r.getLong(0), r.getSeq[Float](1).toSeq)).sortBy(_._1)
    val b = SynthData.embeddings(spark, 300, 12, clusters = 8, seed = 5)
      .repartition(7)
      .collect().map(r => (r.getLong(0), r.getSeq[Float](1).toSeq)).sortBy(_._1)
    assert(a.toSeq == b.toSeq)
  }

  test("embeddings respect n, d and seed sensitivity") {
    val df = SynthData.embeddings(spark, 100, 9, seed = 1)
    assert(df.count() == 100)
    val first = df.orderBy("id").first()
    assert(first.getSeq[Float](1).length == 9)
    val other = SynthData.embeddings(spark, 100, 9, seed = 2).orderBy("id").first()
    assert(first.getSeq[Float](1) != other.getSeq[Float](1))
  }

  test("skewed embeddings are non-negative") {
    val df = SynthData.embeddings(spark, 200, 8, skewed = true, seed = 3)
    val mins = df.select(explode(col("vec")).as("x")).agg(min("x")).first().getFloat(0)
    assert(mins >= 0f)
  }

  test("embeddings cluster structure: same-cluster rows are closer") {
    val rows = SynthData.embeddings(spark, 400, 16, clusters = 4, noise = 0.1, seed = 7)
      .collect().map(r => (r.getLong(0), r.getSeq[Float](1).toArray))
    val vecs = rows.sortBy(_._1).map(_._2)
    val q = vecs.head
    val dists = vecs.map(v => repro.core.Kernels.l2Ref(v, q)).sorted
    assert(dists(10) < dists(dists.length - 1) * 0.5, "no cluster contrast")
  }
}
