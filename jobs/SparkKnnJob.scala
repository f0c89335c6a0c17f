package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.VectorData
import repro.data.VectorData.DatasetSpec
import repro.spark.PdxSpark

/** Distributed PDX similarity search demo for spark-submit:
  * generates clustered embeddings, packs them into per-partition PDX
  * blocks, and answers a KNN query with PDXearch + PDX-BOND inside the
  * executors; the per-partition k-lists are merged on the driver, in one
  * Spark job per query.
  *
  * Prints the build time (generate, pack and cache the blocks) and, after
  * one untimed query, the latency of a warm query over the cached blocks.
  *
  * The data are `VectorData`'s seeded clustered Gaussians (64 clusters); the
  * query is the generator's first query.
  *
  * Args: [nVectors] [dims] [k]  (defaults 100000 64 10)
  */
object SparkKnnJob {
  def main(args: Array[String]): Unit = {
    val n = if (args.length > 0) args(0).toInt else 100000
    val d = if (args.length > 1) args(1).toInt else 64
    val k = if (args.length > 2) args(2).toInt else 10
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pdx-knn")
      .getOrCreate()
    try {
      val t0 = System.nanoTime()
      val ds = VectorData.generate(DatasetSpec("synth", d, n, 1, skewed = false, seed = 42))
      val df = PdxSpark.toVectorDF(spark, ds.vectors, spark.sparkContext.defaultParallelism)
      val blocks = PdxSpark.pack(df, blockSize = 64).cache()
      blocks.count()
      val buildMs = (System.nanoTime() - t0) / 1e6
      val query = ds.queries.head
      def knn() = PdxSpark.knnBond(blocks, query, k).collect()
      knn()
      val t1 = System.nanoTime()
      val res = knn()
      val queryMs = (System.nanoTime() - t1) / 1e6
      println(f"Built PDX blocks for $n vectors (d=$d) in $buildMs%.1f ms")
      println(f"PDX-BOND distributed $k-NN, warm query in $queryMs%.1f ms:")
      res.foreach(r => println(f"  id=${r.getLong(0)}%8d  dist=${r.getDouble(1)}%.4f"))
    } finally spark.stop()
  }
}
